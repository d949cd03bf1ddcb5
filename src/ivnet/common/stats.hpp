// Summary statistics used by the evaluation harness: percentiles and the
// median/p10/p90 triples the paper reports on every figure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ivnet {

/// Linear-interpolated percentile of a sample set. `q` in [0, 1].
/// Returns 0 for an empty sample set.
double percentile(std::span<const double> samples, double q);

/// Median (50th percentile).
double median(std::span<const double> samples);

/// Arithmetic mean. Returns 0 for an empty set.
double mean(std::span<const double> samples);

/// The three-number summary the paper's figures use (median with 10th/90th
/// percentile error bars).
struct PercentileSummary {
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

PercentileSummary summarize(std::span<const double> samples);

/// Fraction of samples strictly greater than `threshold`.
double fraction_above(std::span<const double> samples, double threshold);

/// Incremental accumulator for streaming mean/median and sample storage.
class SampleSet {
 public:
  void add(double value);
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double median() const;
  PercentileSummary summary() const;
  std::span<const double> values() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace ivnet
