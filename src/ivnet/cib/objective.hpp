// The CIB optimization objectives.
//
// Eq. 6/10: choose offsets df_i maximizing the expected (over random phases
// beta) peak over one period of |sum_i e^{j(2*pi*df_i*t + beta_i)}|.
// Sec. 3.7's two-stage extension swaps in a second objective once the link
// attenuation is known: maximize the conduction fraction — the expected time
// the envelope spends above the (normalized) diode threshold.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/common/stats.hpp"

namespace ivnet {

/// Envelope of the CIB sum for given offsets/phases, sampled `steps` times
/// over [0, t_max): Y(t) = |sum_i a_i * e^{j(2*pi*df_i*t + beta_i)}|.
/// `amplitudes` may be empty (all ones).
std::vector<double> cib_envelope(std::span<const double> offsets_hz,
                                 std::span<const double> phases,
                                 std::span<const double> amplitudes,
                                 double t_max_s, std::size_t steps);

/// Peak of the envelope over [0, t_max) for the given phase draw, with
/// parabolic refinement around the best grid sample. Grid resolution
/// defaults to ~16 samples per cycle of the largest offset. Fused: never
/// materializes the envelope vector and allocates nothing for the tone
/// counts the paper uses.
double peak_envelope(std::span<const double> offsets_hz,
                     std::span<const double> phases, double t_max_s,
                     std::size_t steps = 0);

/// Largest grid sample of the envelope (no refinement), with per-tone
/// amplitudes. The fused path behind cib_peak_amplitude: scans the envelope
/// without materializing it.
double max_envelope(std::span<const double> offsets_hz,
                    std::span<const double> phases,
                    std::span<const double> amplitudes, double t_max_s,
                    std::size_t steps = 0);

/// Monte-Carlo samples of the per-trial peak AMPLITUDE, phases drawn
/// uniformly — the inner max of Eq. 6 sampled across channel conditions.
///
/// Trials run on the shared thread pool in blocks of eight, one block per
/// pool claim, through the block kernels' Eq. 6 scan (cib/block_kernels.hpp)
/// at the instruction-set level common/isa.hpp chooses. `rng` is consumed
/// exactly once (a stream base); each trial draws its phases from
/// Rng::stream(base, trial), and each trial's peak is bitwise the
/// peak_envelope of those phases, so the result is the same bytes for any
/// IVNET_THREADS value and at every level.
SampleSet peak_amplitude_samples(std::span<const double> offsets_hz,
                                 std::size_t trials, Rng& rng,
                                 double t_max_s = 1.0);

/// Eq. 6 estimator: E_beta[max_t |sum e^{j(2 pi df t + beta)}|].
double expected_peak_amplitude(std::span<const double> offsets_hz,
                               std::size_t trials, Rng& rng,
                               double t_max_s = 1.0);

/// Expected PEAK POWER gain over a single antenna: E[max^2] / 1. The
/// theoretical maximum is N^2 (Sec. 3.4).
double expected_peak_power_gain(std::span<const double> offsets_hz,
                                std::size_t trials, Rng& rng,
                                double t_max_s = 1.0);

/// Two-stage steady objective: E_beta[ fraction of the period the envelope
/// exceeds `threshold_amplitude` ] (threshold in units of one antenna's
/// amplitude, i.e. the normalized diode threshold Vth / |h|). A sample
/// counts when its squared envelope is at or above the squared threshold.
/// Trials, streams and the block scan as in peak_amplitude_samples; the
/// per-trial fractions are summed in trial order.
double expected_conduction_fraction(std::span<const double> offsets_hz,
                                    double threshold_amplitude,
                                    std::size_t trials, Rng& rng,
                                    double t_max_s = 1.0);

/// Hard ceiling on the evaluation grid: default_steps derives the grid from
/// the LARGEST offset (~16 samples per cycle of the fastest beat), so a
/// large-N or large-offset set would otherwise request an unbounded grid —
/// cib_envelope materializes one double per sample (8 MiB at this ceiling)
/// and every scan pays O(N * steps) time. Above the ceiling the grid
/// undersamples the fastest beats slightly; the parabolic peak refinement
/// absorbs most of the loss. Non-finite inputs (inf offsets, NaN t_max)
/// also clamp here instead of poisoning the size arithmetic.
inline constexpr std::size_t kMaxDefaultSteps = 1u << 20;

/// Deterministic evaluation grid size heuristic shared by the helpers:
/// clamp(16 * max|offset| * t_max, 256, kMaxDefaultSteps).
std::size_t default_steps(std::span<const double> offsets_hz, double t_max_s);

}  // namespace ivnet
