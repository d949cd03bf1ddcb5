#include "ivnet/signal/goertzel.hpp"

#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"

namespace ivnet {

cplx goertzel(const Waveform& wave, double freq_hz) {
  if (wave.samples.empty()) return {0.0, 0.0};
  // Direct correlation with the complex exponential; for our modest buffer
  // sizes this is as fast as the classic two-multiplier recurrence and exact
  // for non-integer bin frequencies.
  PhasorRotator rot(0.0, -kTwoPi * freq_hz / wave.sample_rate_hz);
  cplx acc{0.0, 0.0};
  for (const auto& s : wave.samples) {
    acc += s * rot.value();
    rot.advance();
  }
  return acc / static_cast<double>(wave.samples.size());
}

double goertzel_power(const Waveform& wave, double freq_hz) {
  return std::norm(goertzel(wave, freq_hz));
}

double band_power(const Waveform& wave, double low_hz, double high_hz,
                  std::size_t bins) {
  if (bins == 0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    const double f = bins == 1 ? (low_hz + high_hz) / 2.0
                               : low_hz + (high_hz - low_hz) *
                                              static_cast<double>(i) /
                                              static_cast<double>(bins - 1);
    total += goertzel_power(wave, f);
  }
  return total;
}

}  // namespace ivnet
