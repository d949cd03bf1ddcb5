#include "ivnet/tag/tag_device.hpp"

#include <cmath>
#include <utility>

#include "ivnet/gen2/miller.hpp"

namespace ivnet {
namespace {

gen2::Bits default_epc(std::uint32_t tail) {
  gen2::Bits epc;
  gen2::append_bits(epc, 0x30394038u, 32);  // SGTIN-96 header-ish pattern
  gen2::append_bits(epc, 0x1db0109cu, 32);
  gen2::append_bits(epc, tail, 32);
  return epc;
}

}  // namespace

TagConfig standard_tag() {
  TagConfig config;
  config.antenna = antennas::standard_tag_antenna();
  config.harvester = HarvesterConfig{
      .stages = 4,
      .vth_v = 0.30,
      .storage_cap_f = 220e-12,
      .source_ohm = 2000.0,
      .load_ohm = 200e3,
      .operate_voltage_v = 1.0,
  };
  config.input_resistance_ohm = 1500.0;
  config.epc = default_epc(0x000001AD);
  config.seed = 0xADu;
  return config;
}

TagConfig miniature_tag() {
  TagConfig config;
  config.antenna = antennas::miniature_tag_antenna();
  // Same chip family, but the miniature package pays matching losses: a
  // higher effective threshold and less efficient charge path.
  config.harvester = HarvesterConfig{
      .stages = 4,
      .vth_v = 0.30,
      .storage_cap_f = 100e-12,
      .source_ohm = 2500.0,
      .load_ohm = 200e3,
      .operate_voltage_v = 1.0,
  };
  config.input_resistance_ohm = 1500.0;
  config.wet_matching_gain_db = 8.3;
  config.epc = default_epc(0x0000D054);
  config.seed = 0x0Du;
  return config;
}

TagDevice::TagDevice(TagConfig config)
    : config_(std::move(config)),
      harvester_(config_.harvester),
      sm_(config_.epc, config_.seed) {}

TagDownlinkResult TagDevice::receive_downlink(
    std::span<const double> envelope_v, double fs) {
  TagDownlinkResult result;
  result.harvest = harvester_.run(envelope_v, fs, rail_v_);
  rail_v_ = result.harvest.vdc.empty() ? 0.0 : result.harvest.vdc.back();

  result.powered = result.harvest.peak_vdc >=
                   config_.harvester.operate_voltage_v;
  if (!result.powered) {
    sm_.power_loss();
    return result;
  }
  sm_.power_up();

  const auto decoded = gen2::pie_decode(envelope_v, fs);
  if (!decoded.valid || decoded.bits.empty()) return result;
  result.command_decoded = true;
  result.reply = sm_.on_command(decoded.bits);
  return result;
}

std::vector<double> TagDevice::backscatter_reflection(const gen2::Bits& reply,
                                                      double fs) const {
  // Replies use whatever modulation the last Query's M field requested
  // (FM0 in the paper's prototype; Miller modes for deep-tissue margins).
  auto samples = gen2::uplink_modulate(sm_.uplink_modulation(), reply,
                                       config_.blf_hz, fs);
  const double half_swing = config_.backscatter_depth / 2.0;
  for (auto& s : samples) s *= half_swing;
  return samples;
}

void TagDevice::power_loss() {
  rail_v_ = 0.0;
  sm_.power_loss();
}

}  // namespace ivnet
