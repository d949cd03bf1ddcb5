// Textbook reference implementations of the FIR kernels — test-only oracles
// for the fast paths in src/ivnet/signal/fir.cpp and resampler.cpp.
//
// These are, verbatim, the loops the fast kernels replaced: the full-signal
// bounds-checked FIR and filter-everything-then-discard decimation. The
// bitwise-equivalence policy for kernel rewrites (docs/ARCHITECTURE.md,
// "DSP fast path") pins every fast kernel exactly equal to its oracle here
// (tests/dsp_fastpath_test.cpp).
#pragma once

#include <cstddef>
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

}  // namespace ivnet::naive
