// Textbook reference implementations of the sample-domain DSP kernels —
// TEST-ONLY oracles for the fast paths in fir.cpp / resampler.cpp.
//
// These are, verbatim, the loops the fast kernels replaced: full-signal
// bounds-checked FIR, filter-everything-then-discard decimation, and the
// zero-stuffed tap-by-tap rational resampler. The bitwise-equivalence
// policy for kernel rewrites (docs/ARCHITECTURE.md, "DSP fast path") pins
// every fast kernel exactly equal to its oracle here
// (tests/dsp_fastpath_test.cpp).
//
// Do NOT call these from production code: they are asymptotically wasteful
// by design (that is the point of keeping them).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/signal/resampler.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet::naive {

/// Bounds-checked "same" FIR, complex input (the pre-fast-path kernel).
inline Waveform fir_filter(const Waveform& wave,
                           std::span<const double> taps) {
  Waveform out;
  out.sample_rate_hz = wave.sample_rate_hz;
  out.samples.assign(wave.samples.size(), cplx{0.0, 0.0});
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps.size() - 1) / 2;
  const auto n = static_cast<std::ptrdiff_t>(wave.samples.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const std::ptrdiff_t src = i + delay - static_cast<std::ptrdiff_t>(t);
      if (src >= 0 && src < n) acc += taps[t] * wave.samples[src];
    }
    out.samples[i] = acc;
  }
  return out;
}

/// Bounds-checked "same" FIR, real input.
inline std::vector<double> fir_filter(std::span<const double> x,
                                      std::span<const double> taps) {
  std::vector<double> out(x.size(), 0.0);
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps.size() - 1) / 2;
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const std::ptrdiff_t src = i + delay - static_cast<std::ptrdiff_t>(t);
      if (src >= 0 && src < n) acc += taps[t] * x[src];
    }
    out[i] = acc;
  }
  return out;
}

/// Filter-everything decimation: computes the full filtered signal, then
/// throws away (factor-1)/factor of it.
inline Waveform decimate(const Waveform& in, std::size_t factor) {
  if (factor == 1) return in;
  // Qualified: ADL on Waveform would also find the fast ivnet::fir_filter.
  const Waveform filtered =
      naive::fir_filter(in, decimation_taps(in.sample_rate_hz, factor));
  Waveform out;
  out.sample_rate_hz = in.sample_rate_hz / static_cast<double>(factor);
  out.samples.reserve(filtered.samples.size() / factor + 1);
  for (std::size_t i = 0; i < filtered.samples.size(); i += factor) {
    out.samples.push_back(filtered.samples[i]);
  }
  return out;
}

/// Real-signal filter-everything decimation.
inline std::vector<double> decimate(std::span<const double> in,
                                    std::size_t factor,
                                    double sample_rate_hz) {
  if (factor == 1) return std::vector<double>(in.begin(), in.end());
  const auto filtered = fir_filter(in, decimation_taps(sample_rate_hz, factor));
  std::vector<double> out;
  out.reserve(filtered.size() / factor + 1);
  for (std::size_t i = 0; i < filtered.size(); i += factor) {
    out.push_back(filtered[i]);
  }
  return out;
}

/// Zero-stuffed rational resampling: for every output sample, walk ALL
/// prototype taps and skip the ones that land between input samples.
/// `rs` supplies the reduced ratio and the prototype taps so oracle and
/// fast path share one filter design.
inline std::vector<double> resample(const RationalResampler& rs,
                                    std::span<const double> in) {
  const std::size_t up = rs.up();
  const std::size_t down = rs.down();
  const auto taps = rs.prototype_taps();
  if (up == 1 && down == 1) return std::vector<double>(in.begin(), in.end());
  const std::size_t out_len = in.size() * up / down;
  std::vector<double> out(out_len, 0.0);
  const auto half = static_cast<std::ptrdiff_t>(taps.size() / 2);
  for (std::size_t n = 0; n < out_len; ++n) {
    // Virtual upsampled index of this output sample.
    const std::size_t v = n * down;
    double acc = 0.0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const std::ptrdiff_t vin =
          static_cast<std::ptrdiff_t>(v) + half - static_cast<std::ptrdiff_t>(t);
      if (vin < 0) continue;
      // Only multiples of up carry input samples (zero stuffing).
      if (vin % static_cast<std::ptrdiff_t>(up) != 0) continue;
      const std::ptrdiff_t src = vin / static_cast<std::ptrdiff_t>(up);
      if (src >= static_cast<std::ptrdiff_t>(in.size())) continue;
      acc += taps[t] * in[static_cast<std::size_t>(src)];
    }
    out[n] = acc;
  }
  return out;
}

}  // namespace ivnet::naive
