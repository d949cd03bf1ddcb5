#include "ivnet/impair/link_session.hpp"

#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "ivnet/common/units.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {

const gen2::Bits& default_link_epc() {
  static const gen2::Bits epc = [] {
    gen2::Bits bits;
    gen2::append_bits(bits, 0xE2801160u, 32);
    gen2::append_bits(bits, 0x20000000u, 32);
    gen2::append_bits(bits, 0x00000001u, 32);
    return bits;
  }();
  return epc;
}

LinkSessionReport run_impaired_link_session(const ImpairedLinkConfig& config,
                                            Rng& rng) {
  LinkSessionReport report;
  const double fs = config.sample_rate_hz;
  const RecoveryPolicy& policy = config.recovery;

  // Session telemetry on every exit path. All recorded quantities are
  // simulated (elapsed_s, retries, stages) — deterministic for any thread
  // count, so they may feed byte-stable snapshots.
  struct SessionTelemetry {
    LinkSessionReport& r;
    ~SessionTelemetry() {
      obs::count("link.sessions");
      obs::count(r.success ? "link.success" : "link.failed");
      obs::observe("link.elapsed_s", r.elapsed_s);
      record_recovery("link", r.recovery);
    }
  } telemetry{report};

  // One draw from the caller; every attempt gets a counter-keyed stream so
  // runs differing only in SNR draw the SAME noise shapes (common random
  // numbers), and the caller's rng advances identically for any outcome.
  const std::uint64_t base = rng();
  std::uint64_t attempt_counter = 0;
  auto next_rng = [&] { return Rng::stream(base, attempt_counter++); };

  // Link budget: coherent array gain on both links, tissue loss once on the
  // downlink and twice on the backscatter round trip.
  const double array_gain_db =
      10.0 * std::log10(static_cast<double>(
                 std::max<std::size_t>(1, config.num_antennas)));
  const double uplink_snr_db =
      config.snr_db + array_gain_db - 2.0 * config.medium_loss_db;
  const double downlink_snr_db = config.snr_db + array_gain_db -
                                 config.medium_loss_db +
                                 config.downlink_snr_advantage_db;

  ImpairmentConfig uplink_impair = config.impair;
  uplink_impair.snr_db = uplink_snr_db;
  const ImpairmentChain uplink_chain(uplink_impair);
  // The tag's envelope detector has no mixer: the downlink sees the shared
  // medium (bursts, noise) but not the reader-RX oscillator impairments.
  ImpairmentConfig downlink_impair;
  downlink_impair.snr_db = downlink_snr_db;
  downlink_impair.bursts = config.impair.bursts;
  const ImpairmentChain downlink_chain(downlink_impair);

  gen2::TagStateMachine tag(
      config.epc.empty() ? default_link_epc() : config.epc,
      base ^ 0x9e3779b97f4a7c15ull);

  // The brownout supply rail, rebuilt for the charge window and for every
  // reply into the same buffer.
  std::vector<double> supply;

  // --- Charge. The array/loss-scaled CW amplitude must clear the power-up
  // threshold; with brownout enabled the transient doubler decides instead.
  const double charge_amp = config.charge_amplitude_v *
                            std::sqrt(static_cast<double>(std::max<std::size_t>(
                                1, config.num_antennas))) *
                            db_to_amplitude(-config.medium_loss_db);
  const double charge_t0 = report.elapsed_s;
  report.elapsed_s += config.charge_time_s;
  BrownoutState rail;  // capacitor charge carries across the whole session
  if (config.impair.brownout.enabled) {
    Rng charge_rng = next_rng();
    supply.assign(static_cast<std::size_t>(config.charge_time_s * fs),
                  charge_amp);
    apply_burst_erasures(supply, fs, config.impair.bursts, charge_rng,
                         nullptr);
    const auto gate = brownout_gate(supply, fs, config.impair.brownout,
                                    &report.trace, &rail);
    report.powered = !gate.empty() && gate.back();
  } else {
    report.powered = charge_amp >= config.power_up_threshold_v;
  }
  obs::sim_span("charge", "link", charge_t0, report.elapsed_s);
  if (!report.powered) {
    report.recovery.failed_stage = SessionStage::kCharge;
    obs::sim_instant("brownout", "link", report.elapsed_s);
    return report;
  }
  tag.power_up();

  AdaptiveQ adaptive(config.adaptive_q);
  const double slot_s = 20.0 * config.pie.tari_s;  // QueryRep + T1 + T3

  // Demodulate one uplink reply through the impairment chain.
  auto demodulate = [&](const gen2::Bits& reply, Rng& att_rng)
      -> std::optional<gen2::Bits> {
    std::vector<double> tx =
        gen2::uplink_modulate(config.uplink, reply, config.blf_hz, fs);
    report.elapsed_s += static_cast<double>(tx.size()) / fs;
    // FM0 and Miller records are all +/-1 samples: mean power exactly 1.
    std::vector<double> rx = uplink_chain.apply(std::move(tx), fs, att_rng,
                                                &report.trace, 1.0);
    if (config.impair.brownout.enabled) {
      // The rail sags while the tag modulates: gate the reflection through
      // the doubler, resuming from the rail the charge window left behind.
      supply.assign(rx.size(), charge_amp);
      apply_burst_erasures(supply, fs, config.impair.bursts, att_rng, nullptr);
      BrownoutState reply_rail = rail;  // replies don't discharge each other
      apply_brownout(rx, brownout_gate(supply, fs, config.impair.brownout,
                                       &report.trace, &reply_rail));
    }
    const auto d = gen2::uplink_decode(config.uplink, rx, reply.size(),
                                       config.blf_hz, fs,
                                       config.min_correlation);
    report.last_correlation = d.preamble_correlation;
    if (!d.valid || d.bits.size() != reply.size()) {
      obs::count("link.decode.fail");
      return std::nullopt;
    }
    obs::count("link.decode.ok");
    return d.bits;
  };

  // One command, with per-command retries / backoff / timeout. `is_query`
  // engages the slot chase and the adaptive-Q feedback.
  auto exchange = [&](SessionStage stage, bool is_query,
                      const gen2::Bits& fixed_command, bool with_preamble)
      -> std::optional<gen2::Bits> {
    const double stage_t0 = report.elapsed_s;
    for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
      if (attempt > 0) {
        const double backoff = policy.backoff_for_attempt(attempt - 1);
        report.recovery.backoff_total_s += backoff;
        report.elapsed_s += backoff;
        ++report.recovery.retries;
        if (obs::metrics() != nullptr) {
          std::string key = "link.retry.";
          key += to_string(stage);
          obs::count(key);
          obs::observe("link.backoff_s", backoff);
        }
        obs::sim_instant("retry", "link", report.elapsed_s);
      }
      Rng att_rng = next_rng();
      const std::uint8_t q = adaptive.q();
      const gen2::Bits command =
          is_query ? gen2::QueryCommand{.m = config.uplink, .q = q}.encode()
                   : fixed_command;

      // Downlink: PIE waveform through the shared-medium impairments, then
      // the tag's envelope slicer.
      std::size_t high = 0;
      std::vector<double> pie_env =
          gen2::pie_encode(command, config.pie, fs, with_preamble, &high);
      const auto n = static_cast<double>(pie_env.size());
      report.elapsed_s += n / fs;
      ++report.commands_sent;
      const auto rx_env = downlink_chain.apply(
          std::move(pie_env), fs, att_rng, nullptr,
          static_cast<double>(high) / n);
      const auto sliced = gen2::pie_decode(rx_env, fs);
      std::optional<gen2::Bits> reply;
      if (sliced.valid) reply = tag.on_command(sliced.bits);

      if (is_query && !reply) {
        // Chase the frame's remaining slots with QueryReps (short, robust
        // commands — modeled at the bit level).
        const auto slots = std::size_t{1} << q;
        for (std::size_t s = 1; s < slots && !reply; ++s) {
          adaptive.on_empty();
          report.elapsed_s += slot_s;
          reply = tag.on_command(gen2::QueryRepCommand{}.encode());
        }
      }
      if (is_query) report.recovery.q_trajectory.push_back(adaptive.q());

      if (!reply) {
        // Silent tag: the reader waits out the reply window.
        ++report.recovery.timeouts;
        report.elapsed_s += policy.command_timeout_s;
        if (is_query) adaptive.on_empty();
        continue;
      }
      if (auto bits = demodulate(*reply, att_rng)) {
        if (is_query) adaptive.on_single();
        obs::sim_span(to_string(stage), "link", stage_t0, report.elapsed_s);
        return bits;
      }
      // Garbled reply: indistinguishable from a collision at the reader.
      if (is_query) adaptive.on_collision();
    }
    report.recovery.failed_stage = stage;
    obs::sim_span(to_string(stage), "link", stage_t0, report.elapsed_s);
    return std::nullopt;
  };

  // --- Query -> RN16.
  const auto rn16_bits = exchange(SessionStage::kQuery, /*is_query=*/true,
                                  {}, /*with_preamble=*/true);
  if (!rn16_bits) return report;
  report.rn16 = static_cast<std::uint16_t>(gen2::read_bits(*rn16_bits, 0, 16));

  // --- ACK -> EPC frame (PC + EPC + CRC16).
  const auto ack = gen2::AckCommand{.rn16 = report.rn16}.encode();
  const auto epc_frame = exchange(SessionStage::kAck, /*is_query=*/false, ack,
                                  /*with_preamble=*/false);
  if (!epc_frame) return report;
  if (epc_frame->size() < 32 || !gen2::check_crc16(*epc_frame)) {
    report.recovery.failed_stage = SessionStage::kAck;
    return report;
  }
  report.epc = gen2::Bits(epc_frame->begin() + 16, epc_frame->end() - 16);
  report.success = true;
  return report;
}

}  // namespace ivnet
