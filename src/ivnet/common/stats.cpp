#include "ivnet/common/stats.hpp"

#include <algorithm>
#include <numeric>

namespace ivnet {

double percentile(std::span<const double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> samples) { return percentile(samples, 0.5); }

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

PercentileSummary summarize(std::span<const double> samples) {
  return PercentileSummary{
      .p10 = percentile(samples, 0.10),
      .p50 = percentile(samples, 0.50),
      .p90 = percentile(samples, 0.90),
  };
}

double fraction_above(std::span<const double> samples, double threshold) {
  if (samples.empty()) return 0.0;
  const auto count = std::count_if(samples.begin(), samples.end(),
                                   [&](double s) { return s > threshold; });
  return static_cast<double>(count) / static_cast<double>(samples.size());
}

void SampleSet::add(double value) { samples_.push_back(value); }

double SampleSet::mean() const { return ivnet::mean(samples_); }

double SampleSet::median() const { return ivnet::median(samples_); }

PercentileSummary SampleSet::summary() const { return summarize(samples_); }

}  // namespace ivnet
