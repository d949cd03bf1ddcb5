#include "ivnet/signal/correlate.hpp"

#include <cmath>
#include <numeric>

namespace ivnet {
namespace {

double span_mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(x.size());
}

}  // namespace

CorrelationNeedle::CorrelationNeedle(std::span<const double> needle) {
  // The cached quantities must be the exact values the one-shot kernel
  // derives: same mean division, same ascending accumulation of nb.
  const double mean = span_mean(needle);
  deviations_.resize(needle.size());
  for (std::size_t i = 0; i < needle.size(); ++i) {
    deviations_[i] = needle[i] - mean;
    norm_sq_ += deviations_[i] * deviations_[i];
  }
}

double CorrelationNeedle::correlate(std::span<const double> window) const {
  if (window.size() != deviations_.size() || window.empty()) return 0.0;
  const double ma = span_mean(window);
  double dot = 0.0, na = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const double da = window[i] - ma;
    dot += da * deviations_[i];
    na += da * da;
  }
  if (na <= 0.0 || norm_sq_ <= 0.0) return 0.0;
  return dot / std::sqrt(na * norm_sq_);
}

CorrelationPeak best_correlation(std::span<const double> haystack,
                                 std::span<const double> needle) {
  CorrelationPeak best;
  if (needle.empty() || needle.size() > haystack.size()) return best;
  const CorrelationNeedle cached(needle);
  const std::size_t last = haystack.size() - needle.size();
  for (std::size_t off = 0; off <= last; ++off) {
    const double corr = cached.correlate(haystack.subspan(off, needle.size()));
    if (corr > best.value) {
      best.value = corr;
      best.offset = off;
    }
  }
  return best;
}

}  // namespace ivnet
