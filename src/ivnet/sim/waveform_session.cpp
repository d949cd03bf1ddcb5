#include "ivnet/sim/waveform_session.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ivnet/common/units.hpp"
#include "ivnet/gen2/memory.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/tag/sensor.hpp"

namespace ivnet {
namespace {

/// Strip the calibration TX power folded into scenario channel amplitudes:
/// the waveform path carries the power in the samples instead.
Channel depowered(Channel channel) {
  const double depower = 1.0 / std::sqrt(dbm_to_watts(calib::kTxPowerDbm));
  auto rays = channel.rays();
  for (auto& antenna : rays) {
    for (auto& ray : antenna) ray.amplitude *= depower;
  }
  return Channel(std::move(rays));
}

/// Each antenna's channel gain at its carrier offset: what the array's
/// transmission is weighted by on the way to the tag.
std::vector<cplx> carrier_gains(const Channel& channel,
                                const FrequencyPlan& plan) {
  std::vector<cplx> gains(plan.num_antennas());
  for (std::size_t i = 0; i < gains.size(); ++i) {
    gains[i] = channel.gain(i, plan.offsets_hz()[i]);
  }
  return gains;
}

/// CIB leakage power at the reader's front end (antennas ~1 m away in air).
double jamming_power_w(const FrequencyPlan& plan, double drive_dbm) {
  const double lambda = wavelength(plan.center_hz());
  const double friis_1m = std::pow(lambda / (4.0 * kPi), 2.0);
  return static_cast<double>(plan.num_antennas()) * dbm_to_watts(drive_dbm) *
         from_db(calib::kTxGainDbi) * from_db(7.0) * friis_1m;
}

}  // namespace

WaveformSession::WaveformSession(WaveformSessionConfig config, Rng& rng)
    : config_(std::move(config)), tx_(config_.plan, config_.radio, rng) {}

WaveformSessionReport WaveformSession::run(const Scenario& scenario,
                                           const TagConfig& tag, Rng& rng) {
  WaveformSessionReport report;
  const auto& plan = config_.plan;
  const double fs = config_.radio.sample_rate_hz;

  // Channel amplitudes are volts-at-harvester per sqrt-watt transmitted,
  // but the RadioArray already emits sqrt-watt samples at the configured
  // drive, so strip the calibration TX power from the amplitudes.
  const Channel channel = depowered(draw_scenario_channel(
      scenario, tag, plan.num_antennas(), plan.center_hz(), rng));

  const std::vector<cplx> gains = carrier_gains(channel, plan);
  const RadioArray& radios = tx_.radios();
  TagConfig session_tag = tag;
  session_tag.seed ^= rng();
  TagDevice device(session_tag);

  // --- Charging: CW from every antenna through the real radio chain,
  // heard through the channel without building per-antenna waveforms.
  const std::vector<double> charge_env = envelope(radios.transmit_through(
      tx_.cw_envelope(config_.charge_time_s), 0.0, gains));
  report.peak_envelope_v = max_value(charge_env);
  const auto charge_result = device.receive_downlink(charge_env, fs);
  report.powered = charge_result.powered;
  report.peak_rail_v = charge_result.harvest.peak_vdc;
  if (!report.powered) return report;

  // --- Query, phase-continuous, centered on the observed envelope peak.
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < charge_env.size(); ++i) {
    if (charge_env[i] > charge_env[peak_idx]) peak_idx = i;
  }
  const auto pie_env =
      gen2::pie_encode(gen2::QueryCommand{.q = 0}.encode(), config_.pie, fs,
                       /*with_preamble=*/true);
  const double t_period = plan.period_s() > 0.0 ? plan.period_s() : 1.0;
  const double command_duration = static_cast<double>(pie_env.size()) / fs;
  // Ride the NEXT recurrence of the peak (cyclic operation, Sec. 3.6(a)).
  const double t_peak =
      std::fmod(static_cast<double>(peak_idx) / fs, t_period);
  const double t_start =
      t_peak + t_period - command_duration / 2.0;

  const std::vector<double> cmd_env =
      envelope(radios.transmit_through(pie_env, t_start, gains));
  const auto downlink = device.receive_downlink(cmd_env, fs);
  report.command_decoded = downlink.command_decoded;
  if (!downlink.reply.has_value()) return report;
  report.replied = true;
  report.rn16 = device.state_machine().last_rn16();

  // --- Backscatter through the out-of-band reader, which samples the
  // reflection at its own rate.
  const auto reflection = device.backscatter_reflection(
      *downlink.reply, config_.reader.sample_rate_hz);
  const OobReader reader(config_.reader);
  const LinkBudget reader_budget(antennas::mt242025(), tag.antenna,
                                 scenario.stack);
  const LinkGeometry geom{.air_distance_m = scenario.air_distance_m,
                          .depth_m = scenario.depth_m,
                          .orientation_rad = scenario.orientation_rad};
  const double round_trip =
      reader_budget.power_gain(geom, config_.reader.carrier_hz);

  const double jam_w = jamming_power_w(plan, config_.radio.drive_dbm);

  report.reader_report =
      reader.decode(reflection, round_trip, jam_w, tag.blf_hz,
                    downlink.reply->size(), rng);
  report.preamble_correlation = report.reader_report.preamble_correlation;
  report.rn16_decoded =
      report.reader_report.success &&
      report.reader_report.bits.size() == downlink.reply->size() &&
      std::equal(report.reader_report.bits.begin(),
                 report.reader_report.bits.end(), downlink.reply->begin());
  return report;
}

SensorReadReport WaveformSession::run_sensor_read(const Scenario& scenario,
                                                  const TagConfig& tag,
                                                  double sensor_time_s,
                                                  Rng& rng) {
  SensorReadReport report;
  // Session telemetry on every exit path (simulated quantities only).
  struct SessionTelemetry {
    SensorReadReport& r;
    ~SessionTelemetry() {
      obs::count("waveform.sessions");
      obs::count(r.read_ok ? "waveform.read_ok" : "waveform.read_failed");
      if (r.inventoried) obs::count("waveform.inventoried");
      if (r.secured) obs::count("waveform.secured");
      record_recovery("waveform", r.recovery);
    }
  } telemetry{report};
  const auto& plan = config_.plan;
  const double fs = config_.radio.sample_rate_hz;

  const Channel channel = depowered(draw_scenario_channel(
      scenario, tag, plan.num_antennas(), plan.center_hz(), rng));
  const std::vector<cplx> gains = carrier_gains(channel, plan);
  const RadioArray& radios = tx_.radios();
  TagConfig session_tag = tag;
  session_tag.seed ^= rng();
  TagDevice device(session_tag);

  // The implant samples its vitals into USER memory before the dialogue.
  GastricSensor sensor(rng());
  sensor.publish(sensor_time_s, device.state_machine().memory());

  // Charge and check power-up, as in run().
  const std::vector<double> charge_env = envelope(radios.transmit_through(
      tx_.cw_envelope(config_.charge_time_s), 0.0, gains));
  const auto charge_result = device.receive_downlink(charge_env, fs);
  report.powered = charge_result.powered;
  // Simulated-time trace track: the session timeline starts at the sensor
  // publish time, so traces from repeated reads lay out side by side.
  obs::sim_span("charge", "waveform", sensor_time_s,
                sensor_time_s + config_.charge_time_s);
  if (!report.powered) {
    obs::sim_instant("brownout", "waveform",
                     sensor_time_s + config_.charge_time_s);
    report.recovery.failed_stage = SessionStage::kCharge;
    return report;
  }

  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < charge_env.size(); ++i) {
    if (charge_env[i] > charge_env[peak_idx]) peak_idx = i;
  }
  const double t_period = plan.period_s() > 0.0 ? plan.period_s() : 1.0;
  const double t_peak =
      std::fmod(static_cast<double>(peak_idx) / fs, t_period);

  const OobReader reader(config_.reader);
  const LinkBudget reader_budget(antennas::mt242025(), tag.antenna,
                                 scenario.stack);
  const LinkGeometry geom{.air_distance_m = scenario.air_distance_m,
                          .depth_m = scenario.depth_m,
                          .orientation_rad = scenario.orientation_rad};
  const double round_trip =
      reader_budget.power_gain(geom, config_.reader.carrier_hz);
  const double jam_w = jamming_power_w(plan, config_.radio.drive_dbm);

  // One reader command per CIB period, each riding the recurring peak
  // (Sec. 3.6(a): cyclic operation). A failed attempt retries on a later
  // period per the recovery policy, with exponential backoff between tries.
  const RecoveryPolicy& policy = config_.recovery;
  int command_index = 0;
  SessionStage trace_stage = SessionStage::kQuery;
  // One envelope buffer serves every command attempt of the dialogue.
  std::vector<double> cmd_env;
  auto send_once = [&](const gen2::Bits& command,
                       bool with_preamble) -> std::optional<gen2::Bits> {
    const auto pie_env =
        gen2::pie_encode(command, config_.pie, fs, with_preamble);
    const double duration = static_cast<double>(pie_env.size()) / fs;
    const double t_start = t_peak +
                           static_cast<double>(++command_index) * t_period -
                           duration / 2.0;
    obs::sim_span(to_string(trace_stage), "waveform",
                  sensor_time_s + config_.charge_time_s + t_start,
                  sensor_time_s + config_.charge_time_s + t_start + duration);
    report.commands_sent = command_index;
    envelope(radios.transmit_through(pie_env, t_start, gains), cmd_env);
    const auto downlink = device.receive_downlink(cmd_env, fs);
    if (!downlink.reply.has_value()) {
      // Silent tag: the reader burns its full reply window before retrying.
      ++report.recovery.timeouts;
      return std::nullopt;
    }
    const auto reflection = device.backscatter_reflection(
        *downlink.reply, config_.reader.sample_rate_hz);
    const auto decoded =
        reader.decode(reflection, round_trip, jam_w, tag.blf_hz,
                      downlink.reply->size(), rng);
    if (!decoded.success) {
      obs::count("waveform.decode.fail");
      return std::nullopt;
    }
    obs::count("waveform.decode.ok");
    return decoded.bits;
  };
  auto exchange = [&](SessionStage stage, const gen2::Bits& command,
                      bool with_preamble) -> std::optional<gen2::Bits> {
    trace_stage = stage;
    for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
      if (attempt > 0) {
        ++report.recovery.retries;
        report.recovery.backoff_total_s +=
            policy.backoff_for_attempt(attempt - 1);
        if (obs::metrics() != nullptr) {
          std::string key = "waveform.retry.";
          key += to_string(stage);
          obs::count(key);
        }
        obs::sim_instant("retry", "waveform",
                         sensor_time_s + config_.charge_time_s +
                             static_cast<double>(command_index) * t_period);
      }
      if (auto bits = send_once(command, with_preamble)) return bits;
    }
    report.recovery.failed_stage = stage;
    return std::nullopt;
  };

  // 1. Query -> RN16.
  const auto rn16_bits = exchange(SessionStage::kQuery,
                                  gen2::QueryCommand{.q = 0}.encode(), true);
  if (!rn16_bits || rn16_bits->size() != 16) {
    report.recovery.failed_stage = SessionStage::kQuery;
    return report;
  }
  const auto rn16 =
      static_cast<std::uint16_t>(gen2::read_bits(*rn16_bits, 0, 16));

  // 2. ACK -> EPC frame (CRC-checked).
  const auto epc_bits = exchange(SessionStage::kAck,
                                 gen2::AckCommand{.rn16 = rn16}.encode(),
                                 false);
  if (!epc_bits || !gen2::check_crc16(*epc_bits)) {
    report.recovery.failed_stage = SessionStage::kAck;
    return report;
  }
  report.inventoried = true;

  // 3. Req_RN -> access handle.
  const auto handle_bits = exchange(SessionStage::kReqRn,
                                    gen2::ReqRnCommand{.rn16 = rn16}.encode(),
                                    false);
  if (!handle_bits || handle_bits->size() != 32 ||
      !gen2::check_crc16(*handle_bits)) {
    report.recovery.failed_stage = SessionStage::kReqRn;
    return report;
  }
  report.handle =
      static_cast<std::uint16_t>(gen2::read_bits(*handle_bits, 0, 16));
  report.secured = true;

  // 4. Read USER[0..3] -> sensor words.
  const auto read_bits_reply = exchange(
      SessionStage::kRead,
      gen2::ReadCommand{.bank = gen2::MemBank::kUser,
                        .word_addr = 0,
                        .word_count = 4,
                        .handle = report.handle}
          .encode(),
      false);
  if (!read_bits_reply) return report;
  report.words =
      gen2::parse_read_reply(*read_bits_reply, 4, report.handle);
  if (report.words.size() != 4) {
    report.recovery.failed_stage = SessionStage::kRead;
    return report;
  }
  report.read_ok = true;
  report.temperature_c = GastricSensor::decode_temperature(report.words[0]);
  report.ph = GastricSensor::decode_ph(report.words[1]);
  report.pressure_mmhg = GastricSensor::decode_pressure(report.words[2]);
  return report;
}

}  // namespace ivnet
