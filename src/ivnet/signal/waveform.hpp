// Complex-baseband waveform representation.
//
// All RF signals in ivnet are represented at complex baseband relative to a
// stated center frequency: the physical passband signal is
//   s(t) = Re{ x(t) * exp(j*2*pi*fc*t) }.
// A CIB carrier at offset df from the center is therefore the baseband tone
// exp(j*2*pi*df*t), and the instantaneous RF peak voltage is |x(t)|.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ivnet {

using cplx = std::complex<double>;

/// A uniformly-sampled complex-baseband waveform.
struct Waveform {
  std::vector<cplx> samples;
  double sample_rate_hz = 1.0;

  std::size_t size() const { return samples.size(); }
  bool empty() const { return samples.empty(); }
  double duration_s() const {
    return static_cast<double>(samples.size()) / sample_rate_hz;
  }
  /// Time of sample `i` [s].
  double time_of(std::size_t i) const {
    return static_cast<double>(i) / sample_rate_hz;
  }
};

/// In-place: out[i] += gain * in[i]. `out` is resized up if shorter than `in`.
void accumulate(Waveform& out, const Waveform& in, cplx gain = {1.0, 0.0});

}  // namespace ivnet
