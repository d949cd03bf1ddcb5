// Complex-baseband waveform representation and synthesis.
//
// All RF signals in ivnet are represented at complex baseband relative to a
// stated center frequency: the physical passband signal is
//   s(t) = Re{ x(t) * exp(j*2*pi*fc*t) }.
// A CIB carrier at offset df from the center is therefore the baseband tone
// exp(j*2*pi*df*t), and the instantaneous RF peak voltage is |x(t)|.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
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

/// Complex tone exp(j*(2*pi*offset_hz*t + phase0)) of `num_samples` samples.
Waveform make_tone(double offset_hz, double phase0, std::size_t num_samples,
                   double sample_rate_hz);

/// Sum of unit tones: sum_i amplitude_i * exp(j*(2*pi*offsets[i]*t + phases[i])).
/// `amplitudes` may be empty, meaning all ones. Sizes of offsets/phases must match.
Waveform make_multitone(std::span<const double> offsets_hz,
                        std::span<const double> phases,
                        std::span<const double> amplitudes,
                        std::size_t num_samples, double sample_rate_hz);

/// In-place: out[i] += gain * in[i]. `out` is resized up if shorter than `in`.
void accumulate(Waveform& out, const Waveform& in, cplx gain = {1.0, 0.0});

/// In-place scalar multiply.
void scale(Waveform& wave, cplx gain);

/// Modulate a real-valued envelope (e.g. a PIE command, values in [0,1])
/// onto a complex tone at `offset_hz` with initial phase `phase0`.
Waveform modulate_envelope(std::span<const double> envelope, double offset_hz,
                           double phase0, double sample_rate_hz);

/// Total energy sum(|x|^2) / fs  [V^2 * s into 1 ohm].
double energy(const Waveform& wave);

/// Mean power sum(|x|^2) / n  [V^2 into 1 ohm].
double mean_power(const Waveform& wave);

/// Peak instantaneous amplitude max |x|.
double peak_amplitude(const Waveform& wave);

/// Index of the sample with maximum |x|.
std::size_t peak_index(const Waveform& wave);

}  // namespace ivnet
