#include "ivnet/signal/resampler.hpp"

#include <cassert>

#include "ivnet/signal/fir.hpp"
#include "ivnet/signal/fir_core.hpp"

namespace ivnet {

/// Cutoff at 90% of the post-decimation Nyquist (0.45 * out_rate) with
/// 34*factor + 1 taps: the Hamming transition band (~3.3/N of the input
/// rate) ends AT the new Nyquist, so anything that would alias sits in the
/// >= 50 dB Hamming stopband (the alias-rejection test pins >= 40 dB). A
/// fixed tap count would leave the transition band straddling the new
/// Nyquist at large factors.
std::vector<double> decimation_taps(double in_rate_hz, std::size_t factor) {
  const double out_rate = in_rate_hz / static_cast<double>(factor);
  return design_lowpass(0.45 * out_rate, in_rate_hz, 34 * factor + 1);
}

Waveform decimate(const Waveform& in, std::size_t factor, DspWorkspace& ws) {
  assert(factor >= 1);
  if (factor == 1) return in;
  const auto taps = decimation_taps(in.sample_rate_hz, factor);
  const std::size_t n = in.samples.size();
  const std::size_t out_len = (n + factor - 1) / factor;
  Waveform out;
  out.sample_rate_hz = in.sample_rate_hz / static_cast<double>(factor);
  out.samples.resize(out_len);
  // SoA split + decimating FIR: only the kept output samples are computed.
  ScopedBuffer re(ws, n), im(ws, n), out_re(ws, out_len), out_im(ws, out_len);
  for (std::size_t i = 0; i < n; ++i) {
    re.data()[i] = in.samples[i].real();
    im.data()[i] = in.samples[i].imag();
  }
  detail::fir_decimate(re.data(), n, taps.data(), taps.size(), factor,
                       out_re.data());
  detail::fir_decimate(im.data(), n, taps.data(), taps.size(), factor,
                       out_im.data());
  for (std::size_t k = 0; k < out_len; ++k) {
    out.samples[k] = cplx{out_re.data()[k], out_im.data()[k]};
  }
  return out;
}

}  // namespace ivnet
