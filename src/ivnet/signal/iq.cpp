#include "ivnet/signal/iq.hpp"

#include <algorithm>
#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/goertzel.hpp"
#include "ivnet/signal/phasor.hpp"

namespace ivnet {

Waveform apply_impairments(const Waveform& in, const IqImpairments& imp) {
  Waveform out = in;
  const double g = db_to_amplitude(imp.gain_imbalance_db);
  const double sin_skew = std::sin(imp.phase_skew_rad);
  const double cos_skew = std::cos(imp.phase_skew_rad);
  PhasorRotator rot(0.0, kTwoPi * imp.cfo_hz / in.sample_rate_hz);
  for (std::size_t n = 0; n < out.samples.size(); ++n) {
    const double i = out.samples[n].real();
    const double q = out.samples[n].imag();
    // Q arm sees gain error and quadrature skew.
    const cplx imbalanced{i, g * (q * cos_skew + i * sin_skew)};
    out.samples[n] = rot.value() * imbalanced + cplx{imp.dc_i, imp.dc_q};
    rot.advance();
  }
  return out;
}

cplx remove_dc(Waveform& wave) {
  if (wave.samples.empty()) return {0.0, 0.0};
  cplx mean{0.0, 0.0};
  for (const auto& s : wave.samples) mean += s;
  mean /= static_cast<double>(wave.samples.size());
  for (auto& s : wave.samples) s -= mean;
  return mean;
}

double image_rejection_ratio_db(const Waveform& wave, double tone_hz) {
  const double signal = goertzel_power(wave, tone_hz);
  const double image = goertzel_power(wave, -tone_hz);
  if (image <= 0.0) return 300.0;
  return to_db(signal / image);
}

IqImpairments correct_iq_imbalance(Waveform& wave) {
  // Circularity statistics: for a proper (impairment-free) complex signal
  // E[y^2] = 0. Gain/phase imbalance makes it nonzero; the Moseley-Slump
  // estimator recovers the imbalance from
  //   theta1 = -E[re*im], theta2 = E[re^2], theta3 = E[im^2].
  double t1 = 0.0, t2 = 0.0, t3 = 0.0;
  for (const auto& s : wave.samples) {
    t1 += s.real() * s.imag();
    t2 += s.real() * s.real();
    t3 += s.imag() * s.imag();
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1,
                                                           wave.samples.size()));
  t1 = -t1 / n;
  t2 /= n;
  t3 /= n;
  if (t2 <= 0.0 || t3 <= 0.0) return {};

  const double c1 = t1 / t2;                       // sin(skew) * g ... ratio
  const double c2 = std::sqrt((t3 - t1 * t1 / t2) / t2);
  // Compensation: I' = I;  Q' = (Q + c1 * I) / c2.
  for (auto& s : wave.samples) {
    s = cplx{s.real(), (s.imag() + c1 * s.real()) / c2};
  }
  IqImpairments estimate;
  estimate.phase_skew_rad = std::asin(std::clamp(-c1 / std::sqrt(c1 * c1 + c2 * c2),
                                                 -1.0, 1.0));
  estimate.gain_imbalance_db = amplitude_to_db(std::sqrt(c1 * c1 + c2 * c2));
  return estimate;
}

double estimate_cfo(const Waveform& wave) {
  if (wave.samples.size() < 2) return 0.0;
  cplx acc{0.0, 0.0};
  for (std::size_t n = 1; n < wave.samples.size(); ++n) {
    acc += wave.samples[n] * std::conj(wave.samples[n - 1]);
  }
  return std::arg(acc) * wave.sample_rate_hz / kTwoPi;
}

void remove_cfo(Waveform& wave, double cfo_hz) {
  PhasorRotator rot(0.0, -kTwoPi * cfo_hz / wave.sample_rate_hz);
  for (auto& s : wave.samples) {
    s *= rot.value();
    rot.advance();
  }
}

}  // namespace ivnet
