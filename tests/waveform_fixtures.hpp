// Test fixtures for complex-baseband waveforms: tone synthesis through the
// library's one oscillator (signal/phasor.hpp) and the power and peak
// measures the suites check their outputs with. No program calls them: the
// radio (sdr/radio.cpp) runs its own rotator per carrier.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Complex tone exp(j*(2*pi*offset_hz*t + phase0)) of `num_samples` samples.
inline Waveform make_tone(double offset_hz, double phase0,
                          std::size_t num_samples, double sample_rate_hz) {
  Waveform wave;
  wave.sample_rate_hz = sample_rate_hz;
  wave.samples.resize(num_samples);
  PhasorRotator rot(phase0, kTwoPi * offset_hz / sample_rate_hz);
  for (auto& s : wave.samples) {
    s = rot.value();
    rot.advance();
  }
  return wave;
}

/// Sum of tones: sum_i amplitude_i * exp(j*(2*pi*offsets[i]*t + phases[i])).
/// `amplitudes` may be empty, meaning all ones. Sizes of offsets/phases must
/// match.
inline Waveform make_multitone(std::span<const double> offsets_hz,
                               std::span<const double> phases,
                               std::span<const double> amplitudes,
                               std::size_t num_samples,
                               double sample_rate_hz) {
  assert(offsets_hz.size() == phases.size());
  assert(amplitudes.empty() || amplitudes.size() == offsets_hz.size());
  Waveform out;
  out.sample_rate_hz = sample_rate_hz;
  out.samples.assign(num_samples, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < offsets_hz.size(); ++k) {
    const double amp = amplitudes.empty() ? 1.0 : amplitudes[k];
    PhasorRotator rot(phases[k], kTwoPi * offsets_hz[k] / sample_rate_hz);
    for (auto& s : out.samples) {
      s += amp * rot.value();
      rot.advance();
    }
  }
  return out;
}

/// Mean power sum(|x|^2) / n  [V^2 into 1 ohm].
inline double mean_power(const Waveform& wave) {
  if (wave.samples.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : wave.samples) sum += std::norm(s);
  return sum / static_cast<double>(wave.samples.size());
}

/// Peak instantaneous amplitude max |x|.
inline double peak_amplitude(const Waveform& wave) {
  double peak_sq = 0.0;
  for (const auto& s : wave.samples) peak_sq = std::max(peak_sq, std::norm(s));
  return std::sqrt(peak_sq);
}

}  // namespace ivnet
