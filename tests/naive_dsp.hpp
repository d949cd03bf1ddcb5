// Textbook reference implementations of the FIR kernels and of normalized
// correlation — test-only oracles for the fast paths in
// src/ivnet/signal/fir.cpp, resampler.cpp and correlate.cpp.
//
// These are, verbatim, the loops the fast kernels replaced: the full-signal
// bounds-checked FIR, filter-everything-then-discard decimation, and the
// one-shot correlation that re-derives the needle's statistics per call. The
// bitwise-equivalence policy for kernel rewrites (docs/ARCHITECTURE.md,
// "DSP fast path") pins every fast kernel exactly equal to its oracle here
// (tests/dsp_fastpath_test.cpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>

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

/// Filter-everything decimation: computes the full filtered signal, then
/// throws away (factor-1)/factor of it.
inline Waveform decimate(const Waveform& in, std::size_t factor) {
  if (factor == 1) return in;
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

/// Pearson-style normalized correlation between two equal-length real spans
/// (means removed, normalized by the product of norms); CorrelationNeedle's
/// correlate() must equal it bit for bit. Degenerate inputs return 0:
/// mismatched lengths, empty spans, and any span with zero variance.
inline double normalized_correlation(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const auto mean = [](std::span<const double> x) {
    return std::accumulate(x.begin(), x.end(), 0.0) /
           static_cast<double>(x.size());
  };
  const double ma = mean(a);
  const double mb = mean(b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    dot += da * db;
    na += da * da;
    nb += db * db;
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace ivnet::naive
