// Tests for ivnet/obs: the metrics registry (counters, gauges, fixed-bucket
// histograms), the Chrome-trace tracer, and the null-sink hook facade. The
// concurrency tests are the TSan targets for the registry's thread-safety
// claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ivnet/common/json.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/trace.hpp"

namespace ivnet::obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-3.25);
  EXPECT_EQ(g.value(), -3.25);
}

TEST(HistogramTest, BucketAssignmentAndMinMax) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (le is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  const Histogram::View view = h.view();
  EXPECT_EQ(view.count, 4u);
  EXPECT_EQ(view.min, 0.5);
  EXPECT_EQ(view.max, 1000.0);
  const auto& counts = view.counts;
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(HistogramTest, QuantileMatchesExactSortWithinBucketResolution) {
  // Uniform values over [0, 100) against a fine linear ladder: the
  // interpolated quantile must land within one bucket width of the exact
  // order statistic.
  std::vector<double> bounds;  // 0.5-wide buckets up to 100
  for (int i = 1; i <= 200; ++i) bounds.push_back(0.5 * i);
  Histogram h(bounds);
  std::vector<double> values;
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ull << 53) * 100.0;
  };
  for (int i = 0; i < 5000; ++i) {
    const double v = next();
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.quantile(q), exact, 1.0)
        << "quantile " << q << " off by more than two bucket widths";
  }
}

TEST(HistogramTest, QuantileOfSingleObservation) {
  Histogram h(Histogram::default_bounds());
  h.observe(3.0);
  EXPECT_EQ(h.quantile(0.0), 3.0);
  EXPECT_EQ(h.quantile(0.5), 3.0);
  EXPECT_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramTest, ExponentialBoundsAre125Ladder) {
  const auto b = Histogram::exponential_bounds(1.0, 100.0);
  const std::vector<double> expected = {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
  EXPECT_EQ(b, expected);
}

TEST(MetricsRegistryTest, SameNameSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  Histogram& h1 = reg.histogram("h", std::vector<double>{1.0, 2.0});
  Histogram& h2 = reg.histogram("h");  // later bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotSortedAndByteStable) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("zeta").add(2);
    reg.counter("alpha").add(1);
    reg.gauge("mid").set(0.5);
    reg.histogram("lat", std::vector<double>{1.0, 10.0}).observe(3.0);
    return reg.snapshot_json();
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b) << "snapshot must be byte-stable for equal contents";
  // Lexicographic counter order regardless of creation order.
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
  // Shape: three top-level sections.
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, EmptySnapshotShape) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.snapshot_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistryTest, ConcurrentAccessIsSafe) {
  // TSan target: many threads hitting the same names (lookup + record) and
  // fresh names (map insertion) at once.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("shared").add();
        reg.histogram("shared_h").observe(static_cast<double>(i % 17));
        reg.gauge("g" + std::to_string(t)).set(static_cast<double>(i));
        if (i % 97 == 0) {
          reg.counter("c" + std::to_string(t) + "_" + std::to_string(i)).add();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("shared_h").view().count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(HistogramTest, ViewIsInternallyConsistent) {
  Histogram h({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i % 11));
  const Histogram::View view = h.view();
  EXPECT_EQ(view.count, 100u);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : view.counts) sum += c;
  EXPECT_EQ(sum, view.count);
  EXPECT_EQ(Histogram::quantile_of(view, h.bounds(), 0.5), h.quantile(0.5));
}

TEST(HistogramTest, SnapshotWhileRecordingIsNeverTorn) {
  // TSan + consistency target for the service's always-on shape: workers
  // record into a histogram WHILE a snapshot is being taken. A snapshot
  // assembled from separate locked reads could interleave with observes
  // and report a count that disagrees with its bucket sums; the
  // single-lock View must never do that.
  MetricsRegistry reg;
  const std::vector<double> bounds = {0.125, 0.25, 0.375, 0.5,
                                      0.625, 0.75, 0.875, 1.0};
  Histogram& h = reg.histogram("live", bounds);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, &stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        h.observe(static_cast<double>((w + ++i) % 9) / 8.0);
      }
    });
  }

  for (int round = 0; round < 500; ++round) {
    const Histogram::View view = h.view();
    std::uint64_t sum = 0;
    for (const std::uint64_t c : view.counts) sum += c;
    ASSERT_EQ(sum, view.count)
        << "round " << round << ": bucket sums tore away from the count";
    if (view.count > 0) {
      EXPECT_LE(view.min, view.max);
      const double p99 = Histogram::quantile_of(view, h.bounds(), 0.99);
      EXPECT_GE(p99, view.min);
      EXPECT_LE(p99, view.max);
    }
    // The full JSON path too: it must assemble each histogram from one view.
    const std::string snapshot = reg.snapshot_json();
    const auto count = static_cast<std::uint64_t>(
        json_find_number(snapshot, "count", -1.0));
    EXPECT_GE(count, view.count) << "count can only grow";
  }
  stop.store(true);
  for (auto& t : writers) t.join();

  const Histogram::View final_view = h.view();
  std::uint64_t final_sum = 0;
  for (const std::uint64_t c : final_view.counts) final_sum += c;
  EXPECT_EQ(final_sum, final_view.count);
}

TEST(NullSink, HooksAreNoOpsWithoutInstall) {
  install_null();
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(tracer(), nullptr);
  // Must not crash or allocate registries behind the scenes.
  count("nope");
  gauge_set("nope", 1.0);
  observe("nope", 1.0);
  sim_span("nope", "t", 0.0, 1.0);
  sim_instant("nope", "t", 0.0);
  { ScopedTrack track(7); }
  EXPECT_EQ(metrics(), nullptr);
}

TEST(NullSink, InstallRoutesAndUninstallStops) {
  MetricsRegistry reg;
  install(Sink{.metrics = &reg});
  count("hits", 2);
  install_null();
  count("hits", 100);  // dropped
  EXPECT_EQ(reg.counter("hits").value(), 2u);
}

// Pins the install()/hook publication contract: installing and uninstalling
// the sink while worker threads hammer the hooks must be race-free (release
// store on install, acquire load in every hook). Run under TSan this fails
// on the old relaxed-store implementation; under any build it checks that
// no hit is lost while the sink is installed and none lands after.
TEST(NullSink, LateInstallWhileHooksRunIsRaceFree) {
  MetricsRegistry reg;
  install_null();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> attempted{0};
  std::vector<std::thread> hammers;
  for (int i = 0; i < 4; ++i) {
    hammers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        count("late.hits");
        observe("late.lat", 0.5);
        attempted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Flip the sink in and out repeatedly underneath the hammering threads.
  for (int cycle = 0; cycle < 200; ++cycle) {
    install(Sink{.metrics = &reg});
    install(Sink{});
  }
  install(Sink{.metrics = &reg});
  // Let some traffic land with the sink durably installed.
  const std::uint64_t before = reg.counter("late.hits").value();
  while (reg.counter("late.hits").value() < before + 100) {
    std::this_thread::yield();
  }
  install_null();
  stop.store(true);
  for (std::thread& t : hammers) t.join();
  const std::uint64_t landed = reg.counter("late.hits").value();
  EXPECT_GE(landed, before + 100);
  EXPECT_LE(landed, attempted.load());
  // Nothing arrives once the sink is gone and the workers have stopped.
  EXPECT_EQ(reg.counter("late.hits").value(), landed);
}

TEST(TracerTest, RecordsSimSpansAndInstantsOnTheirTrack) {
  Tracer t;
  install(Sink{.tracer = &t});
  {
    ScopedTrack track(3);
    sim_span("charge", "link", 0.0, 0.5);
    sim_instant("retry", "link", 0.6);
  }
  install_null();
  EXPECT_EQ(t.event_count(), 2u);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Seconds in, microseconds out. 600000 prints as 6e+05: the writer's
  // shortest-round-trip formatter picks scientific when it is shorter.
  EXPECT_NE(json.find("\"ts\":6e+05"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5e+05"), std::string::npos);
}

TEST(TracerTest, SimExportOrdersByTrackThenSeq) {
  // Emit on tracks out of order; export must sort (track, seq).
  Tracer t;
  install(Sink{.tracer = &t});
  {
    ScopedTrack track(2);
    sim_instant("b0", "x", 5.0);
  }
  {
    ScopedTrack track(1);
    sim_instant("a0", "x", 9.0);
    sim_instant("a1", "x", 1.0);  // later seq, earlier sim time: seq wins
  }
  install_null();
  const std::string json = t.to_json();
  const auto a0 = json.find("a0");
  const auto a1 = json.find("a1");
  const auto b0 = json.find("b0");
  ASSERT_NE(a0, std::string::npos);
  ASSERT_NE(a1, std::string::npos);
  ASSERT_NE(b0, std::string::npos);
  EXPECT_LT(a0, a1);
  EXPECT_LT(a1, b0);
}

TEST(TracerTest, ScopedTrackRestoresOuterTrack) {
  Tracer t;
  install(Sink{.tracer = &t});
  {
    ScopedTrack outer(10);
    sim_instant("o0", "x", 0.0);
    {
      ScopedTrack inner(20);
      sim_instant("i0", "x", 0.0);
    }
    sim_instant("o1", "x", 0.0);  // back on track 10, seq continues
  }
  install_null();
  const std::string json = t.to_json();
  // Track 10 events sort before track 20, o1 right after o0.
  const auto o0 = json.find("o0");
  const auto o1 = json.find("o1");
  const auto i0 = json.find("i0");
  EXPECT_LT(o0, o1);
  EXPECT_LT(o1, i0);
}

}  // namespace
}  // namespace ivnet::obs
