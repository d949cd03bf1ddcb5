// Experiment runners: everything the evaluation section measures.
//
//   * Blind-channel peak-power-gain trials (Fig. 9, 10, 11, 12).
//   * Maximum range / depth search (Fig. 13).
//   * Full Gen2 sessions — charge, query, backscatter, out-of-band decode —
//     for the in-vivo reproduction (Fig. 15 / Sec. 6.2).
#pragma once

#include <cstdint>
#include <vector>

#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/common/stats.hpp"
#include "ivnet/impair/recovery.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/rf/channel.hpp"
#include "ivnet/sim/scenario.hpp"
#include "ivnet/tag/tag_device.hpp"

namespace ivnet {

/// Voltage amplitude [V] at the tag's harvester input delivered by ONE
/// transmit antenna at calib::kTxPowerDbm in the given scenario.
double single_antenna_voltage(const Scenario& scenario, const TagConfig& tag,
                              double freq_hz);

/// Per-antenna channel amplitudes (V at harvester per antenna) for an
/// N-antenna array: the single-antenna amplitude with small per-antenna
/// jitter (array elements sit at slightly different ranges/angles).
std::vector<double> array_amplitudes(const Scenario& scenario,
                                     const TagConfig& tag, std::size_t n,
                                     double freq_hz, Rng& rng);

/// One blind channel draw for an N-antenna array in the scenario: per-antenna
/// amplitudes from the physics, phases uniform at random, with the scenario's
/// multipath richness.
Channel draw_scenario_channel(const Scenario& scenario, const TagConfig& tag,
                              std::size_t n, double freq_hz, Rng& rng);

/// One peak-gain comparison trial in a fresh blind channel draw.
struct GainTrial {
  double cib_gain = 0.0;       ///< CIB peak power / single-antenna power
  double baseline_gain = 0.0;  ///< same-frequency N-antenna / single-antenna
  double genie_gain = 0.0;     ///< channel-aware MIMO upper bound
};

/// Run `trials` independent blind-channel draws in `scenario`.
std::vector<GainTrial> run_gain_trials(const Scenario& scenario,
                                       const TagConfig& tag,
                                       const FrequencyPlan& plan,
                                       std::size_t trials, Rng& rng);

/// Collapse trials into the paper's median/p10/p90 summaries.
PercentileSummary summarize_cib(const std::vector<GainTrial>& trials);
PercentileSummary summarize_baseline(const std::vector<GainTrial>& trials);

/// How many of `trials` blind channel draws bring the CIB peak voltage to
/// the tag's threshold. Consumes one `rng` draw, the trial-stream base, so
/// the count is bitwise identical for any thread count.
std::size_t power_up_count(const Scenario& scenario, const TagConfig& tag,
                           const FrequencyPlan& plan, std::size_t trials,
                           Rng& rng);

/// Power-up test: does the CIB peak voltage reach the tag's threshold in at
/// least `success_ratio` of `trials` blind draws?
bool can_power_up(const Scenario& scenario, const TagConfig& tag,
                  const FrequencyPlan& plan, std::size_t trials,
                  double success_ratio, Rng& rng);

/// Maximum air range [m] at which the tag still powers up (bisection over
/// distance). Returns 0 when even the minimum distance fails.
double max_air_range(const TagConfig& tag, const FrequencyPlan& plan,
                     std::size_t trials, Rng& rng, double max_search_m = 100.0);

/// Maximum depth [m] in the water tank (standoff per calibration). Returns
/// 0 when the tag cannot be powered at the surface.
double max_water_depth(const TagConfig& tag, const FrequencyPlan& plan,
                       std::size_t trials, Rng& rng,
                       double max_search_m = 0.5);

/// Configuration of a full Gen2 session.
struct SessionConfig {
  FrequencyPlan plan = FrequencyPlan::paper_default();
  OobReaderConfig reader;
  gen2::PieTiming pie;
  double charge_time_s = 1.0;     ///< CW charging before the query
  double charge_rate_hz = 20e3;   ///< envelope rate for the charging phase
  std::uint8_t query_q = 0;       ///< Gen2 Q (0: tag replies immediately)
  /// Per-command retries/backoff: each attempt re-rides a later envelope
  /// peak. Retries help the reader's noisy RN16 decode; the tag-side PIE
  /// decode is deterministic per envelope, so a command the envelope cannot
  /// carry honestly stays undecodable.
  RecoveryPolicy recovery;
};

/// Outcome of a full charge -> query -> RN16 -> decode session.
struct SessionReport {
  bool powered = false;
  bool command_decoded = false;
  bool replied = false;
  bool rn16_decoded = false;       ///< reader recovered the RN16
  double preamble_correlation = 0.0;
  std::uint16_t rn16 = 0;
  double peak_rail_v = 0.0;
  double peak_envelope_v = 0.0;    ///< peak harvester input voltage
  OobDecodeReport reader_report;
  std::vector<double> tag_rail_trace;  ///< rail during charging (decimated)
  RecoveryStats recovery;              ///< retries / timeouts / failure stage
};

/// Run one full session against a fresh blind channel draw.
SessionReport run_gen2_session(const Scenario& scenario, const TagConfig& tag,
                               const SessionConfig& config, Rng& rng);

}  // namespace ivnet
