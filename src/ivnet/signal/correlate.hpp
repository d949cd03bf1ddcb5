// Correlation utilities. The in-vivo decode criterion in Sec. 6.2 is a
// normalized correlation of the received waveform against the tag's known
// 12-bit FM0 preamble, with success declared above 0.8.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ivnet {

/// Result of a sliding correlation search.
struct CorrelationPeak {
  double value = 0.0;      ///< Normalized correlation in [-1, 1].
  std::size_t offset = 0;  ///< Start index in the haystack.
};

/// Pearson-style normalized correlation of windows against one needle
/// (means removed, normalized by the product of norms), with the
/// needle-side statistics precomputed.
///
/// A sliding preamble search correlates a window at every offset; a
/// one-shot kernel would re-derive the needle's mean, deviations, and norm
/// each time — roughly 40% of the work for a quantity that never changes.
/// This caches them once; correlate() then only computes the window-side
/// sums. Each accumulator sees the identical sequence of adds the one-shot
/// kernel performs, so the result is bitwise-identical to it
/// (tests/naive_dsp.hpp holds that oracle) — the kernel under
/// best_correlation and the FM0/Miller preamble searches.
class CorrelationNeedle {
 public:
  explicit CorrelationNeedle(std::span<const double> needle);

  std::size_t size() const { return deviations_.size(); }

  /// Normalized correlation of `window` against the needle. Degenerate
  /// inputs return 0 rather than NaN: window.size() != size(), an empty
  /// window, or either side with zero variance (constant values — which
  /// includes all length-1 spans, whose single sample equals its own mean).
  double correlate(std::span<const double> window) const;

 private:
  std::vector<double> deviations_;  // needle[i] - mean(needle)
  double norm_sq_ = 0.0;            // sum of squared deviations
};

/// Slide `needle` over `haystack` and return the best normalized correlation.
/// Returns {0, 0} when the needle is longer than the haystack or empty.
CorrelationPeak best_correlation(std::span<const double> haystack,
                                 std::span<const double> needle);

}  // namespace ivnet
