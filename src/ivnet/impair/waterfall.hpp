// Monte-Carlo sweeps over the impaired link: BER/PER-vs-SNR waterfalls,
// the media x SNR x antennas session matrix, and session-success-vs-depth
// curves — the impaired-channel counterparts of the paper's Fig. 13/14
// evaluation plots.
//
// All sweeps run each trial as one run_impaired_link_session on the shared
// parallel pool, with counter-derived per-trial Rng streams, and all are
// keyed by the TRIAL index only (not the sweep point), so every SNR /
// depth / antenna point sees the same noise realizations scaled to its own
// budget. These common random numbers make
// the success-vs-SNR curves monotone in expectation AND in any single
// deterministic run, which is what the end-to-end matrix test asserts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ivnet/impair/link_session.hpp"
#include "ivnet/media/medium.hpp"

namespace ivnet {

/// One-way excess loss the link budget charges for `depth_m` of `medium`:
/// bulk absorption plus the air->medium boundary crossing.
double medium_loss_at_depth_db(const Medium& medium, double freq_hz,
                               double depth_m);

/// One point of a BER/PER/session waterfall.
struct WaterfallPoint {
  double snr_db = 0.0;
  double ber = 0.0;  ///< raw uplink bit error rate (erased frames count 1/2)
  double per = 0.0;  ///< uplink frame error rate (decode fail or any bit bad)
  double session_success_rate = 0.0;  ///< full charge->EPC dialogues
  double mean_retries = 0.0;
  double mean_timeouts = 0.0;
  std::size_t trials = 0;
};

struct WaterfallConfig {
  /// Template link; its snr_db is overridden by each sweep point.
  ImpairedLinkConfig link;
  std::vector<double> snr_points_db = {30.0, 20.0, 10.0, 0.0};
  std::size_t trials_per_point = 32;
  std::size_t payload_bits = 128;  ///< frame length for the raw BER probe
};

/// One raw-BER probe outcome.
struct BerProbeResult {
  std::size_t bit_errors = 0;
  bool frame_error = false;
};

/// The waterfall's raw-BER probe: random payload through the impaired
/// uplink, decoded at the reader's correlation gate. An undecodable frame
/// is charged half its bits. Consumes payload_bits draws for the payload,
/// then whatever the impairment chain draws.
BerProbeResult ber_probe_trial(const ImpairedLinkConfig& link,
                               std::size_t payload_bits, Rng trial_rng);

/// Sweep SNR. Consumes one rng draw (the stream base); trial t draws from
/// Rng::stream sub-streams shared across all SNR points (common random
/// numbers). Deterministic for any IVNET_THREADS.
std::vector<WaterfallPoint> run_ber_waterfall(const WaterfallConfig& config,
                                              Rng& rng);

/// One cell of the media x SNR x antennas matrix.
struct MatrixCell {
  std::string medium;
  double medium_loss_db = 0.0;
  double snr_db = 0.0;
  std::size_t num_antennas = 1;
  std::size_t trials = 0;
  std::size_t successes = 0;
  double success_rate = 0.0;
  double mean_retries = 0.0;
  double mean_timeouts = 0.0;
  /// Sessions that succeeded only after at least one retry — the sessions a
  /// retry-free reader would have lost.
  std::size_t recovered_by_retry = 0;
};

/// A medium column of the matrix: a display name plus its one-way loss.
struct MatrixMedium {
  std::string name;
  double loss_db = 0.0;
};

struct MatrixConfig {
  ImpairedLinkConfig link;  ///< snr/antennas/loss overridden per cell
  std::vector<MatrixMedium> media;
  std::vector<double> snr_points_db = {30.0, 20.0, 10.0, 0.0};
  std::vector<std::size_t> antenna_counts = {1, 3, 10};
  std::size_t trials_per_cell = 24;
};

/// Every media x SNR x antennas cell, trials shared-stream as above. Cells
/// are ordered medium-major, then SNR (descending as given), then antennas.
std::vector<MatrixCell> run_session_matrix(const MatrixConfig& config,
                                           Rng& rng);

/// One point of a success-vs-depth curve.
struct DepthPoint {
  double depth_m = 0.0;
  double medium_loss_db = 0.0;
  double success_rate = 0.0;
  double mean_retries = 0.0;
};

struct DepthSweepConfig {
  ImpairedLinkConfig link;
  Medium medium = media::muscle();
  double freq_hz = 915e6;
  std::vector<double> depths_m = {0.02, 0.04, 0.06, 0.08, 0.10, 0.12};
  std::size_t trials_per_point = 32;
};

/// Success rate vs implant depth in one medium (loss from
/// medium_loss_at_depth_db), common-random-numbers across depths.
std::vector<DepthPoint> run_success_vs_depth(const DepthSweepConfig& config,
                                             Rng& rng);

/// JSON emitters for the sweep results (stable field order; byte-equal
/// output for byte-equal inputs, which the determinism suite relies on).
std::string waterfall_json(const std::vector<WaterfallPoint>& points);
std::string matrix_json(const std::vector<MatrixCell>& cells);
std::string depth_sweep_json(const std::vector<DepthPoint>& points);

}  // namespace ivnet
