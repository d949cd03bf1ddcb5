// Three-region FIR core shared by fir.cpp (full-rate filtering) and
// resampler.cpp (polyphase decimation).
//
// "Same"-aligned FIR output:  out[i] = sum_t taps[t] * x[i + delay - t],
// delay = (T-1)/2.  The textbook loop bounds-checks every tap of every
// output. Here outputs split into three regions:
//
//   left edge   i in [0, lo):  tap window overhangs x[<0]   -> checked loop
//   interior    i in [lo, hi): every tap lands inside x     -> branch-free
//   right edge  i in [hi, n):  tap window overhangs x[>=n]  -> checked loop
//
// with lo = max(0, T-1-delay) and hi = n - delay (empty when the input is
// shorter than the filter). Both loops accumulate taps in ascending-t
// order, and the checked loop SKIPS out-of-range terms exactly as the naive
// kernel does, so each output is produced by the identical sequence of
// floating-point operations: results are bitwise-identical to the naive
// oracle (tests/naive_dsp.hpp), which tests/dsp_fastpath_test.cpp pins.
//
// The interior runs in L1-resident output tiles, accumulated tap-by-tap
// (the "outer product" form): for each tap, one contiguous
// acc[j] += tap * x[j + shift] pass over the tile. Interleaving across
// outputs changes nothing WITHIN any output's accumulator — each still
// sees the same ascending-t add sequence — but the inner loop is a pure
// streaming multiply-add over independent SIMD lanes (lane = output), so
// it vectorizes at -O3 without any FP reassociation, and the tile stays
// in L1 across all taps.
//
// fir_decimate evaluates the same recurrence only at the kept output
// indices i = k * factor — the polyphase decimation identity: filtering
// then discarding (factor-1)/factor of the outputs wastes factor x the
// MACs for the same retained samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace ivnet::detail {

/// One bounds-checked output sample (the naive kernel's inner loop).
inline double fir_edge_sample(const double* x, std::ptrdiff_t n,
                              const double* taps, std::ptrdiff_t num_taps,
                              std::ptrdiff_t delay, std::ptrdiff_t i) {
  double acc = 0.0;
  for (std::ptrdiff_t t = 0; t < num_taps; ++t) {
    const std::ptrdiff_t src = i + delay - t;
    if (src >= 0 && src < n) acc += taps[t] * x[src];
  }
  return acc;
}

/// One interior output sample: every src index is in range by construction.
inline double fir_core_sample(const double* x, const double* taps,
                              std::ptrdiff_t num_taps, std::ptrdiff_t delay,
                              std::ptrdiff_t i) {
  const double* base = x + i + delay;
  double acc = 0.0;
  for (std::ptrdiff_t t = 0; t < num_taps; ++t) acc += taps[t] * base[-t];
  return acc;
}

/// Interior region [lo, hi) of an n-sample "same" convolution; empty (and
/// everything runs checked) when the input is shorter than the filter.
inline std::pair<std::ptrdiff_t, std::ptrdiff_t> fir_core_region(
    std::ptrdiff_t n, std::ptrdiff_t num_taps, std::ptrdiff_t delay) {
  const std::ptrdiff_t lo =
      std::min(n, std::max<std::ptrdiff_t>(0, num_taps - 1 - delay));
  const std::ptrdiff_t hi = std::max(lo, n - delay);
  return {lo, hi};
}

/// Full-rate "same" convolution: out[0..n) from x[0..n).
inline void fir_same(const double* x, std::size_t n, const double* taps,
                     std::size_t num_taps, double* out) {
  const auto nn = static_cast<std::ptrdiff_t>(n);
  const auto nt = static_cast<std::ptrdiff_t>(num_taps);
  const std::ptrdiff_t delay = (nt - 1) / 2;
  const auto [lo, hi] = fir_core_region(nn, nt, delay);
  for (std::ptrdiff_t i = 0; i < lo; ++i) {
    out[i] = fir_edge_sample(x, nn, taps, nt, delay, i);
  }
  // Tiled interior (see header comment). 1024 doubles = 8 KiB: the
  // accumulator tile and the tap-shifted input windows fit L1 together.
  constexpr std::ptrdiff_t kTile = 1024;
  double acc[kTile];
  for (std::ptrdiff_t i0 = lo; i0 < hi; i0 += kTile) {
    const std::ptrdiff_t m = std::min(kTile, hi - i0);
    std::fill_n(acc, m, 0.0);
    for (std::ptrdiff_t t = 0; t < nt; ++t) {
      const double tap = taps[t];
      const double* p = x + i0 + delay - t;
      for (std::ptrdiff_t j = 0; j < m; ++j) acc[j] += tap * p[j];
    }
    std::copy_n(acc, m, out + i0);
  }
  for (std::ptrdiff_t i = hi; i < nn; ++i) {
    out[i] = fir_edge_sample(x, nn, taps, nt, delay, i);
  }
}

/// Decimating "same" convolution: out[k] = fir_same output at i = k*factor,
/// for k in [0, ceil(n/factor)). Only the kept samples are evaluated.
inline void fir_decimate(const double* x, std::size_t n, const double* taps,
                         std::size_t num_taps, std::size_t factor,
                         double* out) {
  const auto nn = static_cast<std::ptrdiff_t>(n);
  const auto nt = static_cast<std::ptrdiff_t>(num_taps);
  const std::ptrdiff_t delay = (nt - 1) / 2;
  const auto [lo, hi] = fir_core_region(nn, nt, delay);
  std::size_t k = 0;
  for (std::ptrdiff_t i = 0; i < nn; i += static_cast<std::ptrdiff_t>(factor)) {
    out[k++] = (i >= lo && i < hi)
                   ? fir_core_sample(x, taps, nt, delay, i)
                   : fir_edge_sample(x, nn, taps, nt, delay, i);
  }
}

}  // namespace ivnet::detail
