// Single-bin DFT for the tests: tone amplitude and phase read off a
// complex-baseband waveform without a full FFT.
#pragma once

#include <complex>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Complex DFT coefficient of `wave` at `freq_hz` (complex baseband),
/// normalized by the number of samples: X(f) = (1/N) * sum x[n] e^{-j2πfn/fs}.
/// Direct correlation with the complex exponential, exact for non-integer
/// bin frequencies.
inline cplx goertzel(const Waveform& wave, double freq_hz) {
  if (wave.samples.empty()) return {0.0, 0.0};
  PhasorRotator rot(0.0, -kTwoPi * freq_hz / wave.sample_rate_hz);
  cplx acc{0.0, 0.0};
  for (const auto& s : wave.samples) {
    acc += s * rot.value();
    rot.advance();
  }
  return acc / static_cast<double>(wave.samples.size());
}

/// Power |X(f)|^2 at the given frequency.
inline double goertzel_power(const Waveform& wave, double freq_hz) {
  return std::norm(goertzel(wave, freq_hz));
}

}  // namespace ivnet
