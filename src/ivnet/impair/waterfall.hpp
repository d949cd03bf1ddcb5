// Monte-Carlo sweeps over the impaired link: BER/PER-vs-SNR waterfalls,
// the media x SNR x antennas session matrix, and session-success-vs-depth
// curves — the impaired-channel counterparts of the paper's Fig. 13/14
// evaluation plots.
//
// Every sweep is keyed by the TRIAL index only (not the sweep point): trial
// t of every point draws from Rng::stream(base, t), so every SNR / depth /
// antenna point sees the same noise realizations scaled to its own budget.
// These common random numbers make the success-vs-SNR curves monotone in
// expectation AND in any single deterministic run, which is what the
// end-to-end matrix test asserts.
//
// One trial loop, run_sweep_items, serves every sweep here and the
// campaign's sweep cells. The waterfall and the matrix take a list of runs
// (one run is a list of one); the depth curve also has a one-run form. The
// loop runs trial-major: one unit of work is trial t of every point that
// shares a stream base, on one thread, under one signal::NoiseTapeScope.
// Those points make the same noise calls (same generator state, same
// length), so the tape draws each trial's noise once and replays it at
// every other point's power, byte for byte. Each point then folds its
// trials in trial order, so results are bitwise identical for any
// IVNET_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// One sweep point for run_sweep_items.
struct SweepItem {
  ImpairedLinkConfig link;
  std::uint64_t stream_base = 0;
  std::size_t trials = 0;
  /// Waterfall points: trial t runs the raw-BER probe (payload_bits long)
  /// on Rng::stream(stream_base, 2t) and the session on stream 2t + 1.
  /// Otherwise trial t runs the session on stream t.
  bool ber_probe = false;
  std::size_t payload_bits = 0;
  /// Trial t emits its sim-trace events on track track_base + t.
  std::uint32_t track_base = 0;
};

/// What one item's trials add up to, folded in trial order.
struct SweepTally {
  std::size_t bit_errors = 0;
  std::size_t frame_errors = 0;
  std::size_t successes = 0;
  std::size_t retried_successes = 0;  ///< successes after >= 1 retry
  long retries = 0;
  long timeouts = 0;
  double backoff_s = 0.0;  ///< left fold from +0, trial 0 first
};

/// The one trial loop of every sweep: result i is items[i]'s tally. Items
/// that share a stream base form a group; one unit of work is trial t of
/// every item in a group, run in list order on one thread under a noise
/// tape (a group of one needs none), one unit per pool claim. Trials run in
/// waves of 1,024, each folded before the next, so memory does not grow
/// with the trial count. The first exception a trial throws is rethrown
/// after the loop drains. Deterministic for any IVNET_THREADS.
std::vector<SweepTally> run_sweep_items(std::span<const SweepItem> items);

/// One sweep among several run together: its config, the stream base its
/// trials key on (what run_success_vs_depth draws from its rng), and the
/// sim-trace track of its first trial. Point p's trial t is on track
/// track_base + p * trials + t.
template <typename Config>
struct SweepRun {
  Config config;
  std::uint64_t stream_base = 0;
  std::uint32_t track_base = 0;
};

/// Sweep SNR for several waterfalls through one run_sweep_items call
/// (same-base runs share their noise draws); result i belongs to runs[i].
/// Trial t draws from Rng::stream sub-streams shared across all SNR points
/// (common random numbers). Deterministic for any IVNET_THREADS.
std::vector<std::vector<WaterfallPoint>> run_ber_waterfalls(
    std::span<const SweepRun<WaterfallConfig>> runs);

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

/// Every media x SNR x antennas cell of several matrices through one
/// run_sweep_items call, trials shared-stream as above; result i belongs to
/// runs[i]. Cells are ordered medium-major, then SNR (descending as given),
/// then antennas.
std::vector<std::vector<MatrixCell>> run_session_matrices(
    std::span<const SweepRun<MatrixConfig>> runs);

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

/// Several depth curves through one run_sweep_items call; result i belongs
/// to runs[i].
std::vector<std::vector<DepthPoint>> run_depth_sweeps(
    std::span<const SweepRun<DepthSweepConfig>> runs);

}  // namespace ivnet
