// Tests for ivnet/common/parallel: the shared thread pool, the chunked
// helpers, and the counter-based Rng::stream derivation that together form
// the deterministic parallel-execution contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_F(ParallelTest, ThreadCountIsPositive) {
  EXPECT_GE(parallel_thread_count(), 1u);
}

TEST_F(ParallelTest, OverrideControlsPoolSize) {
  set_parallel_threads(3);
  EXPECT_EQ(parallel_thread_count(), 3u);
  set_parallel_threads(0);
  EXPECT_GE(parallel_thread_count(), 1u);
}

TEST_F(ParallelTest, ParseThreadCount) {
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_EQ(parse_thread_count("16"), 16u);
  EXPECT_EQ(parse_thread_count("not-a-number"), 0u);
  EXPECT_EQ(parse_thread_count("4x"), 0u);
  EXPECT_EQ(parse_thread_count("99999999"), 0u);  // absurd -> automatic
}

TEST_F(ParallelTest, ForVisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    set_parallel_threads(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    parallel_for(kN, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads;
    }
  }
}

TEST_F(ParallelTest, ForHandlesEmptyAndTinyRanges) {
  set_parallel_threads(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, ForSpreadsASmallLoopOverThePool) {
  // A loop of one reduce grain's worth of coarse items (the planner scores
  // 16 or 32 Monte-Carlo trials per call) must not run on one thread. Each
  // item waits until a second item is running, so the flag is only set
  // when two indices overlap; a serial loop waits out the shared deadline.
  set_parallel_threads(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::atomic<int> running{0};
  std::atomic<bool> overlapped{false};
  parallel_for(detail::kParallelGrain, [&](std::size_t) {
    running.fetch_add(1);
    while (!overlapped.load() &&
           std::chrono::steady_clock::now() < deadline) {
      if (running.load() >= 2) {
        overlapped.store(true);
      } else {
        std::this_thread::yield();
      }
    }
    running.fetch_sub(1);
  });
  EXPECT_TRUE(overlapped.load())
      << "no two of " << detail::kParallelGrain << " items ran at once";
}

TEST_F(ParallelTest, ReduceCountsAsOneParallelForCall) {
  // parallel_reduce dispatches its own chunks but keeps the telemetry a
  // parallel_for over n items recorded, so metrics snapshots stay put.
  set_parallel_threads(4);
  obs::MetricsRegistry registry;
  obs::install({.metrics = &registry, .tracer = nullptr});
  const double sum = parallel_reduce(
      100, 0.0, [](std::size_t i) { return static_cast<double>(i); },
      [](double a, double b) { return a + b; });
  obs::install_null();
  EXPECT_EQ(sum, 4950.0);
  EXPECT_EQ(registry.counter("parallel.for.calls").value(), 1u);
  EXPECT_EQ(registry.counter("parallel.for.items").value(), 100u);
}

TEST_F(ParallelTest, MapPreservesIndexOrder) {
  set_parallel_threads(8);
  const auto out =
      parallel_map<std::size_t>(500, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ParallelTest, ReduceIsBitwiseIdenticalAcrossPoolSizes) {
  // A floating-point sum whose value depends on association order: the
  // fixed-grain chunking must make it identical for every pool size.
  auto run = [] {
    return parallel_reduce(
        10000, 0.0, [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  set_parallel_threads(1);
  const double serial = run();
  for (std::size_t threads : {2u, 3u, 8u}) {
    set_parallel_threads(threads);
    const double parallel = run();
    EXPECT_EQ(serial, parallel) << "pool size " << threads;
  }
}

TEST_F(ParallelTest, NestedCallsRunInline) {
  set_parallel_threads(4);
  std::vector<std::atomic<int>> visits(64 * 64);
  parallel_for(64, [&](std::size_t outer) {
    parallel_for(64, [&](std::size_t inner) {
      visits[outer * 64 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(RngStream, SameKeySameSequence) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStream, OrderIndependent) {
  // Deriving streams in any order, interleaved with any other derivations,
  // yields the same values: streams are pure functions of (seed, index).
  Rng early = Rng::stream(9, 3);
  const std::uint64_t early_first = early();
  Rng unrelated_a = Rng::stream(9, 1);
  Rng unrelated_b = Rng::stream(1234, 3);
  (void)unrelated_a();
  (void)unrelated_b();
  Rng late = Rng::stream(9, 3);
  EXPECT_EQ(late(), early_first);
}

TEST(RngStream, DistinctIndicesAreDecorrelated) {
  // Non-overlap proxy: the first few draws of many consecutive streams are
  // all distinct (a shared or shifted stream would collide immediately).
  std::set<std::uint64_t> seen;
  constexpr std::uint64_t kStreams = 1000;
  for (std::uint64_t k = 0; k < kStreams; ++k) {
    Rng r = Rng::stream(77, k);
    for (int draws = 0; draws < 4; ++draws) seen.insert(r());
  }
  EXPECT_EQ(seen.size(), kStreams * 4);
}

TEST(RngStream, DistinctSeedsDiffer) {
  Rng a = Rng::stream(1, 0);
  Rng b = Rng::stream(2, 0);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff |= (a() != b());
  EXPECT_TRUE(any_diff);
}

TEST(RngStream, UniformStaysInRange) {
  Rng r = Rng::stream(5, 11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace ivnet
