#include "ivnet/signal/waveform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"

namespace ivnet {

Waveform make_tone(double offset_hz, double phase0, std::size_t num_samples,
                   double sample_rate_hz) {
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

Waveform make_multitone(std::span<const double> offsets_hz,
                        std::span<const double> phases,
                        std::span<const double> amplitudes,
                        std::size_t num_samples, double sample_rate_hz) {
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

void accumulate(Waveform& out, const Waveform& in, cplx gain) {
  if (out.samples.size() < in.samples.size()) {
    out.samples.resize(in.samples.size(), cplx{0.0, 0.0});
    out.sample_rate_hz = in.sample_rate_hz;
  }
  for (std::size_t i = 0; i < in.samples.size(); ++i) {
    out.samples[i] += gain * in.samples[i];
  }
}

void scale(Waveform& wave, cplx gain) {
  for (auto& s : wave.samples) s *= gain;
}

Waveform modulate_envelope(std::span<const double> envelope, double offset_hz,
                           double phase0, double sample_rate_hz) {
  Waveform tone = make_tone(offset_hz, phase0, envelope.size(), sample_rate_hz);
  for (std::size_t i = 0; i < envelope.size(); ++i) tone.samples[i] *= envelope[i];
  return tone;
}

double energy(const Waveform& wave) {
  double sum = 0.0;
  for (const auto& s : wave.samples) sum += std::norm(s);
  return sum / wave.sample_rate_hz;
}

double mean_power(const Waveform& wave) {
  if (wave.samples.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : wave.samples) sum += std::norm(s);
  return sum / static_cast<double>(wave.samples.size());
}

double peak_amplitude(const Waveform& wave) {
  double peak_sq = 0.0;
  for (const auto& s : wave.samples) peak_sq = std::max(peak_sq, std::norm(s));
  return std::sqrt(peak_sq);
}

std::size_t peak_index(const Waveform& wave) {
  std::size_t best = 0;
  double best_norm = -1.0;
  for (std::size_t i = 0; i < wave.samples.size(); ++i) {
    const double n = std::norm(wave.samples[i]);
    if (n > best_norm) {
      best_norm = n;
      best = i;
    }
  }
  return best;
}

}  // namespace ivnet
