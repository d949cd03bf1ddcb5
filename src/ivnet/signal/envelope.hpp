// Envelope extraction and the amplitude-flatness metric of Eq. 7.
//
// Battery-free tags decode downlink commands by envelope detection: the tag's
// detector sees |x(t)| low-pass filtered by its RC front end. The functions
// here model that detector and compute the fluctuation metric
// (Amax - Amin)/Amax that the CIB flatness constraint (Eq. 9) bounds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Instantaneous magnitude |x(t)| of a complex-baseband waveform.
std::vector<double> envelope(const Waveform& wave);

/// As above, writing into `out` (resized), so a caller that detects one
/// envelope per command attempt can reuse one buffer's capacity.
void envelope(const Waveform& wave, std::vector<double>& out);

/// Simple moving average with a window of `window` samples (>= 1); models the
/// RC low-pass of an envelope detector. Output has the same length; edges use
/// a shrunken window.
std::vector<double> moving_average(std::span<const double> x, std::size_t window);

/// Single-pole RC low-pass y[n] = a*x[n] + (1-a)*y[n-1] with time constant
/// `tau_s` at sample rate `fs`.
std::vector<double> rc_lowpass(std::span<const double> x, double tau_s, double fs);

/// Fluctuation metric of Eq. 7: (Amax - Amin) / Amax over the span.
/// Returns 0 for empty or all-zero input.
double fluctuation(std::span<const double> env);

/// Largest value in the span (0 if empty).
double max_value(std::span<const double> env);

/// Smallest value in the span (0 if empty).
double min_value(std::span<const double> env);

/// Threshold-based on/off slicing used by a tag's envelope detector: returns
/// one bool per sample, true where env >= threshold. The Gen2 tag uses
/// (Amax+Amin)/2 as its decision threshold (Sec. 3.6(b)).
std::vector<bool> slice(std::span<const double> env, double threshold);

/// Midpoint threshold (Amax + Amin) / 2 of the span.
double midpoint_threshold(std::span<const double> env);

}  // namespace ivnet
