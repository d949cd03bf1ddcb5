#include "ivnet/obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ivnet/common/json.hpp"

namespace ivnet::obs {

std::size_t Histogram::View::bucket_of(std::span<const double> bounds,
                                       double value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

void Histogram::View::add(std::size_t bucket, double value) {
  ++counts[bucket];
  ++count;
  min = std::min(min, value);
  max = std::max(max, value);
}

void Histogram::View::merge(const View& other) {
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  view_.counts.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const std::size_t bucket = View::bucket_of(bounds_, value);
  std::lock_guard<std::mutex> lock(mutex_);
  view_.add(bucket, value);
}

Histogram::View Histogram::view() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return view_;
}

double Histogram::quantile_of(const View& view, std::span<const double> bounds,
                              double q) {
  if (view.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Walk the cumulative counts to the bucket holding rank q*count, then
  // interpolate linearly inside it. The first bucket's lower edge is the
  // observed min and the overflow bucket's upper edge is the observed max,
  // so single-bucket histograms still report sensible quantiles.
  const double rank = q * static_cast<double>(view.count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < view.counts.size(); ++b) {
    if (view.counts[b] == 0) continue;
    const double cum_before = static_cast<double>(cum);
    cum += view.counts[b];
    if (static_cast<double>(cum) < rank) continue;
    const double lo =
        b == 0 ? view.min : std::max(view.min, bounds[b - 1]);
    const double hi = b == view.counts.size() - 1
                          ? view.max
                          : std::min(view.max, bounds[b]);
    const double frac =
        (rank - cum_before) / static_cast<double>(view.counts[b]);
    return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
  }
  return view.max;
}

std::vector<double> Histogram::default_bounds() {
  // 1-2-5 ladder over 10^-6 .. 10^4: microsecond spans to multi-kilo
  // counts/voltages without per-metric tuning.
  return exponential_bounds(1e-6, 1e4);
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi,
                                                  std::size_t per_decade) {
  assert(lo > 0.0 && hi > lo);
  // 1-2-5 for the canonical 3/decade; even decimation otherwise.
  static constexpr double k125[] = {1.0, 2.0, 5.0};
  std::vector<double> bounds;
  const int lo_exp = static_cast<int>(std::floor(std::log10(lo) + 1e-9));
  const int hi_exp = static_cast<int>(std::ceil(std::log10(hi) - 1e-9));
  for (int e = lo_exp; e < hi_exp; ++e) {
    for (std::size_t k = 0; k < per_decade; ++k) {
      const double mantissa =
          per_decade == 3
              ? k125[k]
              : std::pow(10.0, static_cast<double>(k) /
                                   static_cast<double>(per_decade));
      const double v = mantissa * std::pow(10.0, e);
      if (v >= lo && v <= hi) bounds.push_back(v);
    }
  }
  bounds.push_back(hi);
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  std::vector<double> b = bounds.empty()
                              ? Histogram::default_bounds()
                              : std::vector<double>(bounds.begin(), bounds.end());
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(b)))
              .first->second;
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(static_cast<std::size_t>(c->value()));
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.key(name).value(g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    // One coherent view per histogram: count, min/max, quantiles, and
    // bucket rows all derive from the same frozen copy, so a snapshot taken
    // while workers are still observing can never report a count that
    // disagrees with its bucket sums (obs_test pins this under TSan).
    const Histogram::View view = h->view();
    const auto& bounds = h->bounds();
    w.key(name).begin_object();
    w.field("count", static_cast<std::size_t>(view.count));
    if (view.count > 0) {
      w.field("min", view.min);
      w.field("max", view.max);
      w.field("p50", Histogram::quantile_of(view, bounds, 0.50));
      w.field("p90", Histogram::quantile_of(view, bounds, 0.90));
      w.field("p99", Histogram::quantile_of(view, bounds, 0.99));
    }
    // Only non-empty buckets: snapshots stay compact and adding ladder
    // rungs later cannot silently reshape every export.
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < view.counts.size(); ++b) {
      if (view.counts[b] == 0) continue;
      w.begin_object();
      if (b < bounds.size()) {
        w.field("le", bounds[b]);
      } else {
        w.key("le").value("inf");
      }
      w.field("count", static_cast<std::size_t>(view.counts[b]));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace ivnet::obs
