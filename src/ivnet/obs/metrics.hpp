// Thread-safe metrics registry: counters, gauges, and histograms the
// telemetry hooks across the CIB/link/sweep stack record into.
//
// Design constraints, in priority order:
//
//   1. Determinism. A snapshot must be BYTE-stable for any thread count:
//      counters are integer adds (order-free), histograms export bucket
//      counts and min/max (order-free) plus quantiles interpolated from the
//      buckets (a pure function of the counts). Nothing in the snapshot is
//      an order-dependent float accumulation, so the determinism suite can
//      pin snapshot JSON across 1/2/8-thread pools.
//   2. Cheap when observed, free when not. The hook layer (obs/obs.hpp)
//      checks a single atomic pointer before touching the registry, so a
//      null sink costs one relaxed load per hook site.
//   3. Stable iteration. Metrics snapshot in lexicographic name order, and
//      the JSON emitter (common/json) writes fields in a fixed order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ivnet::obs {

/// Monotonic event count. Lock-free; safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (thread counts, best scores, config echoes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts per upper bound plus an overflow bucket,
/// with exact min/max. Everything exported is order-independent, so the
/// snapshot is byte-stable no matter how observations interleave.
class Histogram {
 public:
  /// `bounds` are strictly increasing bucket upper bounds; values land in
  /// the first bucket whose bound is >= value, else in the overflow bucket.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  /// Atomically-consistent copy of the histogram state: the bucket counts,
  /// total count, and min/max all reflect the SAME instant. view() is the
  /// one read of a live histogram; a snapshot assembled from several locked
  /// reads could report a count that disagrees with its bucket sums.
  struct View {
    std::uint64_t count = 0;
    double min = std::numeric_limits<double>::infinity();   ///< +inf when empty
    double max = -std::numeric_limits<double>::infinity();  ///< -inf when empty
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow

    /// The bucket `value` lands in: the first whose bound is >= value, else
    /// the overflow bucket (index bounds.size()).
    static std::size_t bucket_of(std::span<const double> bounds, double value);
    /// Counts `value` in `bucket` (bucket_of on this view's bounds).
    void add(std::size_t bucket, double value);
    /// Adds `other`'s bucket counts (same bounds) and folds its min/max.
    void merge(const View& other);
  };
  View view() const;  ///< one lock acquisition for the whole copy

  /// Quantile q in [0, 1] interpolated linearly inside the owning bucket
  /// (first/overflow buckets interpolate against the observed min/max).
  /// A pure function of the bucket counts — deterministic across threads.
  double quantile(double q) const { return quantile_of(view(), bounds_, q); }

  /// The quantile computation on a frozen view: pure, lock-free. Use this
  /// (with one view()) when reading several quantiles of a live histogram.
  static double quantile_of(const View& view, std::span<const double> bounds,
                            double q);

  const std::vector<double>& bounds() const { return bounds_; }

  /// 1-2-5 per decade from 10^lo_exp to 10^hi_exp — the default bucket
  /// ladder for durations [s] and voltages, wide enough for both.
  static std::vector<double> default_bounds();
  static std::vector<double> exponential_bounds(double lo, double hi,
                                                std::size_t per_decade = 3);

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  View view_;  // guarded by mutex_
};

/// One name -> metric store with deterministic (lexicographic) snapshot
/// ordering and byte-stable JSON export. Lookup is mutex-guarded; returned
/// references stay valid for the registry's lifetime (node-based map).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First creation fixes the bucket bounds; later callers get the existing
  /// histogram regardless of `bounds`. Empty bounds = default ladder.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = {});

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — names sorted,
  /// field order fixed, doubles via the common/json formatter. Byte-equal
  /// for equal metric contents.
  std::string snapshot_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ivnet::obs
