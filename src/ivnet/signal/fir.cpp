#include "ivnet/signal/fir.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/fir_core.hpp"

namespace ivnet {
namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

// Input validation must hold in release builds too: an assert-only check
// disappears under NDEBUG and a cutoff at/above Nyquist silently designs
// garbage taps (the sinc aliases), so these throw unconditionally.
[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("fir: " + what);
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t num_taps) {
  if (!(sample_rate_hz > 0.0)) invalid("sample_rate_hz must be > 0");
  if (!(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0)) {
    invalid("cutoff_hz must be in (0, sample_rate_hz/2): got " +
            std::to_string(cutoff_hz) + " at fs " +
            std::to_string(sample_rate_hz));
  }
  if (num_taps == 0) invalid("num_taps must be >= 1");
  if (num_taps % 2 == 0) ++num_taps;
  const double fc = cutoff_hz / sample_rate_hz;  // normalized (cycles/sample)
  const auto mid = static_cast<double>(num_taps - 1) / 2.0;
  std::vector<double> taps(num_taps);
  double sum = 0.0;
  for (std::size_t n = 0; n < num_taps; ++n) {
    const double k = static_cast<double>(n) - mid;
    const double window =
        0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(n) /
                               static_cast<double>(num_taps - 1));
    taps[n] = 2.0 * fc * sinc(2.0 * fc * k) * window;
    sum += taps[n];
  }
  for (auto& t : taps) t /= sum;  // unit DC gain
  return taps;
}

void fir_filter(const Waveform& wave, std::span<const double> taps,
                Waveform& out, DspWorkspace& ws) {
  const std::size_t n = wave.samples.size();
  out.sample_rate_hz = wave.sample_rate_hz;
  out.samples.resize(n);
  // SoA: a complex sample convolved with real taps is two independent real
  // convolutions; split lanes keep the core loop's loads contiguous.
  ScopedBuffer re(ws, n), im(ws, n), out_re(ws, n), out_im(ws, n);
  for (std::size_t i = 0; i < n; ++i) {
    re.data()[i] = wave.samples[i].real();
    im.data()[i] = wave.samples[i].imag();
  }
  detail::fir_same(re.data(), n, taps.data(), taps.size(), out_re.data());
  detail::fir_same(im.data(), n, taps.data(), taps.size(), out_im.data());
  for (std::size_t i = 0; i < n; ++i) {
    out.samples[i] = cplx{out_re.data()[i], out_im.data()[i]};
  }
}

}  // namespace ivnet
