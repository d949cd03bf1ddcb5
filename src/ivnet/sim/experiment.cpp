#include "ivnet/sim/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ivnet/cib/baseline.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/sim/calibration.hpp"

namespace ivnet {
namespace {

LinkGeometry geometry_of(const Scenario& scenario) {
  return LinkGeometry{.air_distance_m = scenario.air_distance_m,
                      .depth_m = scenario.depth_m,
                      .orientation_rad = scenario.orientation_rad};
}

}  // namespace

namespace {

/// The medium surrounding the tag's test tube (the layer before the final
/// air pocket), or the outer medium when the tag sits directly in air.
const Medium& tube_surrounding_medium(const Scenario& scenario) {
  const auto& layers = scenario.stack.layers();
  if (layers.size() >= 2) return layers[layers.size() - 2].medium;
  if (!layers.empty()) return layers.front().medium;
  return scenario.stack.outer();
}

}  // namespace

double single_antenna_voltage(const Scenario& scenario, const TagConfig& tag,
                              double freq_hz) {
  const LinkBudget budget(scenario.tx_antenna, tag.antenna, scenario.stack);
  const double v_per_sqrtw = budget.voltage_per_sqrt_watt(
      geometry_of(scenario), freq_hz, tag.input_resistance_ohm);
  double v = v_per_sqrtw * std::sqrt(dbm_to_watts(calib::kTxPowerDbm)) *
             tag.matching_voltage_gain;
  if (tube_surrounding_medium(scenario).eps_r() > 20.0) {
    v *= db_to_amplitude(tag.wet_matching_gain_db);
  }
  return v;
}

std::vector<double> array_amplitudes(const Scenario& scenario,
                                     const TagConfig& tag, std::size_t n,
                                     double freq_hz, Rng& rng) {
  const double v1 = single_antenna_voltage(scenario, tag, freq_hz);
  std::vector<double> amps(n);
  for (auto& a : amps) {
    a = v1 * db_to_amplitude(rng.normal(0.0, calib::kArrayAmplitudeJitterDb));
  }
  return amps;
}

Channel draw_scenario_channel(const Scenario& scenario, const TagConfig& tag,
                              std::size_t n, double freq_hz, Rng& rng) {
  const auto amps = array_amplitudes(scenario, tag, n, freq_hz, rng);
  if (scenario.multipath_rays <= 1) return make_blind_channel(amps, rng);
  return make_multipath_channel(amps, scenario.multipath_rays,
                                scenario.delay_spread_s, rng);
}

std::vector<GainTrial> run_gain_trials(const Scenario& scenario,
                                       const TagConfig& tag,
                                       const FrequencyPlan& plan,
                                       std::size_t trials, Rng& rng) {
  obs::count("sim.gain_trials.calls");
  obs::count("sim.gain_trials.trials", trials);
  const double v1 = single_antenna_voltage(scenario, tag, plan.center_hz());
  const double t_max = plan.period_s() > 0.0 ? plan.period_s() : 1.0;
  // One blind channel draw per trial, each from its own counter-derived
  // stream: trials run concurrently yet the result is bitwise identical for
  // any thread count (`rng` is consumed exactly once, for the stream base).
  const std::uint64_t base = rng();
  std::vector<GainTrial> results(trials);
  const auto run_trial = [&](std::size_t k) {
    Rng trial_rng = Rng::stream(base, k);
    const Channel channel = draw_scenario_channel(
        scenario, tag, plan.num_antennas(), plan.center_hz(), trial_rng);
    GainTrial trial;
    // The reference is what the paper's procedure measures: the peak power a
    // SINGLE antenna delivers to the same location — i.e. that antenna's own
    // (possibly faded) channel draw, floored to keep ratios finite.
    const double ref =
        std::max(single_antenna_amplitude(channel), 0.05 * v1);
    const double cib_amp =
        cib_peak_amplitude(channel, plan.offsets_hz(), t_max);
    const double base_amp = coherent_blind_amplitude(channel);
    const double genie_amp = genie_mimo_amplitude(channel);
    trial.cib_gain = (cib_amp / ref) * (cib_amp / ref);
    trial.baseline_gain = (base_amp / ref) * (base_amp / ref);
    trial.genie_gain = (genie_amp / ref) * (genie_amp / ref);
    results[k] = trial;
  };
  parallel_for(trials, run_trial);
  return results;
}

PercentileSummary summarize_cib(const std::vector<GainTrial>& trials) {
  std::vector<double> gains;
  gains.reserve(trials.size());
  for (const auto& t : trials) gains.push_back(t.cib_gain);
  return summarize(gains);
}

PercentileSummary summarize_baseline(const std::vector<GainTrial>& trials) {
  std::vector<double> gains;
  gains.reserve(trials.size());
  for (const auto& t : trials) gains.push_back(t.baseline_gain);
  return summarize(gains);
}

std::size_t power_up_count(const Scenario& scenario, const TagConfig& tag,
                           const FrequencyPlan& plan, std::size_t trials,
                           Rng& rng) {
  const TagDevice device(tag);
  const double threshold = device.min_peak_voltage();
  const double t_max = plan.period_s() > 0.0 ? plan.period_s() : 1.0;
  const std::uint64_t base = rng();
  // Per-trial success flags; the integer count is order-independent, so the
  // verdict is bitwise identical for any thread count.
  std::vector<std::uint8_t> powered(trials, 0);
  const auto run_trial = [&](std::size_t k) {
    Rng trial_rng = Rng::stream(base, k);
    const Channel channel = draw_scenario_channel(
        scenario, tag, plan.num_antennas(), plan.center_hz(), trial_rng);
    const double peak = cib_peak_amplitude(channel, plan.offsets_hz(), t_max);
    powered[k] = peak >= threshold ? 1 : 0;
  };
  parallel_for(trials, run_trial);
  std::size_t successes = 0;
  for (std::uint8_t p : powered) successes += p;
  return successes;
}

bool can_power_up(const Scenario& scenario, const TagConfig& tag,
                  const FrequencyPlan& plan, std::size_t trials,
                  double success_ratio, Rng& rng) {
  const std::size_t successes =
      power_up_count(scenario, tag, plan, trials, rng);
  return static_cast<double>(successes) >=
         success_ratio * static_cast<double>(trials);
}

namespace {

/// Generic bisection: find the largest x in [lo, hi] where predicate(x)
/// holds, assuming it holds at lo and decays monotonically (statistically).
template <typename Predicate>
double bisect_max(double lo, double hi, int iterations, Predicate&& ok) {
  if (!ok(lo)) return 0.0;
  if (ok(hi)) return hi;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ok(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

double max_air_range(const TagConfig& tag, const FrequencyPlan& plan,
                     std::size_t trials, Rng& rng, double max_search_m) {
  auto ok = [&](double distance) {
    return can_power_up(air_scenario(distance), tag, plan, trials, 0.5, rng);
  };
  return bisect_max(0.3, max_search_m, 18, ok);
}

double max_water_depth(const TagConfig& tag, const FrequencyPlan& plan,
                       std::size_t trials, Rng& rng, double max_search_m) {
  auto ok = [&](double depth) {
    return can_power_up(
        water_tank_scenario(depth, calib::kRangeSetupStandoffM), tag, plan,
        trials, 0.5, rng);
  };
  return bisect_max(1e-3, max_search_m, 16, ok);
}

SessionReport run_gen2_session(const Scenario& scenario, const TagConfig& tag,
                               const SessionConfig& config, Rng& rng) {
  SessionReport report;
  // Session telemetry on every exit path (simulated quantities only).
  struct SessionTelemetry {
    SessionReport& r;
    ~SessionTelemetry() {
      obs::count("gen2.sessions");
      obs::count(r.rn16_decoded ? "gen2.success" : "gen2.failed");
      if (r.powered) obs::count("gen2.powered");
      record_recovery("gen2", r.recovery);
    }
  } telemetry{report};
  const auto& plan = config.plan;
  const double t_period = plan.period_s() > 0.0 ? plan.period_s() : 1.0;

  // Blind channel draw at the CIB carrier.
  const Channel channel = draw_scenario_channel(
      scenario, tag, plan.num_antennas(), plan.center_hz(), rng);
  std::vector<double> tone_amps(plan.num_antennas());
  std::vector<double> tone_phases(plan.num_antennas());
  for (std::size_t i = 0; i < plan.num_antennas(); ++i) {
    const cplx h = channel.gain(i, plan.offsets_hz()[i]);
    tone_amps[i] = std::abs(h);
    tone_phases[i] = std::arg(h);
  }

  // Fresh RN16 stream per session: a real tag seeds its generator from
  // power-up noise, so two sessions never replay the same RN16 sequence.
  TagConfig session_tag = tag;
  session_tag.seed ^= rng();
  TagDevice device(session_tag);

  // --- Charging phase: CW from all antennas for charge_time_s.
  const auto charge_samples = static_cast<std::size_t>(
      std::llround(config.charge_time_s * config.charge_rate_hz));
  const auto charge_env =
      cib_envelope(plan.offsets_hz(), tone_phases, tone_amps,
                   config.charge_time_s, charge_samples);
  report.peak_envelope_v = max_value(charge_env);
  const auto charge_result =
      device.receive_downlink(charge_env, config.charge_rate_hz);
  report.powered = charge_result.powered;
  report.peak_rail_v = charge_result.harvest.peak_vdc;
  // Decimated rail trace for plotting.
  const std::size_t stride =
      std::max<std::size_t>(1, charge_result.harvest.vdc.size() / 2000);
  for (std::size_t i = 0; i < charge_result.harvest.vdc.size(); i += stride) {
    report.tag_rail_trace.push_back(charge_result.harvest.vdc[i]);
  }
  if (!report.powered) {
    report.recovery.failed_stage = SessionStage::kCharge;
    return report;
  }

  // --- Query phase: modulate the command onto the CIB envelope, timed so
  // the command rides an envelope peak (the flatness constraint keeps the
  // envelope near-flat across the 800 us command).
  const double fs = calib::kSampleRateHz;
  const auto pie_env = gen2::pie_encode(gen2::QueryCommand{.q = config.query_q}
                                            .encode(),
                                        config.pie, fs, /*with_preamble=*/true);
  // Peak time within one period from the charging-phase envelope.
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < charge_env.size(); ++i) {
    if (charge_env[i] > charge_env[peak_idx]) peak_idx = i;
  }
  const double t_peak = static_cast<double>(peak_idx) / config.charge_rate_hz;
  const double command_duration =
      static_cast<double>(pie_env.size()) / fs;
  const double t_start =
      std::max(0.0, std::fmod(t_peak, t_period) - command_duration / 2.0);

  // CIB envelope across the command window, offset by t_start.
  std::vector<double> start_phases(tone_phases);
  for (std::size_t i = 0; i < start_phases.size(); ++i) {
    start_phases[i] = wrap_phase(
        start_phases[i] + kTwoPi * plan.offsets_hz()[i] * t_start);
  }
  const auto cib_window = cib_envelope(plan.offsets_hz(), start_phases,
                                       tone_amps, command_duration,
                                       pie_env.size());
  std::vector<double> command_env(pie_env.size());
  for (std::size_t i = 0; i < pie_env.size(); ++i) {
    command_env[i] = pie_env[i] * cib_window[i];
  }

  const OobReader reader(config.reader);
  const LinkBudget reader_budget(antennas::mt242025(), tag.antenna,
                                 scenario.stack);
  const double one_way_power_gain = reader_budget.power_gain(
      geometry_of(scenario), config.reader.carrier_hz);
  const double round_trip_voltage_gain = one_way_power_gain;

  // Self-jamming: CIB antennas sit ~1 m from the reader's receive antenna
  // in air (Fig. 7's bench layout).
  const double lambda = wavelength(plan.center_hz());
  const double friis_1m = std::pow(lambda / (4.0 * kPi * 1.0), 2.0);
  const double jam_w = static_cast<double>(plan.num_antennas()) *
                       dbm_to_watts(calib::kTxPowerDbm) *
                       from_db(calib::kTxGainDbi) * from_db(7.0) * friis_1m;

  // --- Query + backscatter, with per-command recovery: each attempt rides
  // a later recurrence of the envelope peak. Retries re-roll the reader's
  // noise; the tag-side PIE decode is deterministic per envelope.
  const RecoveryPolicy& policy = config.recovery;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++report.recovery.retries;
      report.recovery.backoff_total_s += policy.backoff_for_attempt(attempt - 1);
    }
    const auto downlink = device.receive_downlink(command_env, fs);
    report.command_decoded = downlink.command_decoded;
    if (!downlink.reply.has_value()) {
      ++report.recovery.timeouts;
      continue;
    }
    report.replied = true;
    report.rn16 = device.state_machine().last_rn16();

    // Backscatter: the tag modulates the out-of-band reader's CW.
    const auto reflection =
        device.backscatter_reflection(*downlink.reply, fs);
    report.reader_report =
        reader.decode(reflection, round_trip_voltage_gain, jam_w, tag.blf_hz,
                      downlink.reply->size(), rng);
    report.preamble_correlation = report.reader_report.preamble_correlation;
    report.rn16_decoded =
        report.reader_report.success &&
        report.reader_report.bits.size() == downlink.reply->size() &&
        std::equal(report.reader_report.bits.begin(),
                   report.reader_report.bits.end(), downlink.reply->begin());
    if (report.rn16_decoded) break;
  }
  if (!report.rn16_decoded) report.recovery.failed_stage = SessionStage::kQuery;
  return report;
}

}  // namespace ivnet
