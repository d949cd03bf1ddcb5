// Load-harness suite: the MMPP/DTMC schedule generator must be a pure
// function of its config (bitwise-identical schedules per seed and across
// pool sizes, identical response digests across service worker counts),
// its chain must actually walk the configured transition matrix, and the
// closed-loop replay must honour its concurrency window and refuse one the
// queue cannot hold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/svc/loadgen.hpp"
#include "ivnet/svc/service.hpp"
#include "bit_fields.hpp"

namespace ivnet::svc {
namespace {

LoadState state_of(double rate, RequestKind kind, std::uint32_t trials) {
  LoadState s;
  s.rate_rps = rate;
  s.kind = kind;
  s.trials = trials;
  s.antennas = 2;
  s.snr_db = 14.0;
  return s;
}

LoadGenConfig two_state_config(std::size_t requests, std::uint64_t seed) {
  LoadGenConfig config;
  config.states = {state_of(100.0, RequestKind::kDecode, 2),
                   state_of(400.0, RequestKind::kInventory, 1)};
  config.transition = {0.7, 0.3, 0.4, 0.6};
  config.requests = requests;
  config.seed = seed;
  return config;
}

TEST(LoadGenTest, ScheduleIsDeterministicPerSeed) {
  const LoadGenConfig config = two_state_config(500, 11);
  const auto a = fields(generate_schedule(config));
  EXPECT_EQ(fields(generate_schedule(config)), a)
      << "same config must produce a bitwise-identical schedule";

  LoadGenConfig other = config;
  other.seed = 12;
  EXPECT_NE(fields(generate_schedule(other)), a)
      << "a different seed must re-time the arrivals";
}

TEST(LoadGenTest, ScheduleIndependentOfPoolSize) {
  // The generator never touches the parallel pool, and this pins it: the
  // schedule must not depend on how the rest of the process is
  // provisioned.
  const LoadGenConfig config = two_state_config(300, 21);
  set_parallel_threads(1);
  const auto reference = fields(generate_schedule(config));
  for (const std::size_t threads : {2, 8}) {
    set_parallel_threads(threads);
    EXPECT_EQ(fields(generate_schedule(config)), reference)
        << "pool size " << threads;
  }
  set_parallel_threads(0);
}

TEST(LoadGenTest, ScheduleShapeAndMonotonicTimestamps) {
  const LoadGenConfig config = two_state_config(400, 31);
  const auto schedule = generate_schedule(config);
  ASSERT_EQ(schedule.size(), 400u);
  double prev = 0.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].request.id, i);
    EXPECT_GT(schedule[i].t_s, prev) << "timestamps strictly increase";
    prev = schedule[i].t_s;
    const LoadState& state = config.states[schedule[i].state];
    EXPECT_EQ(schedule[i].request.kind, state.kind);
    EXPECT_EQ(schedule[i].request.trials, state.trials);
  }
}

TEST(LoadGenTest, TransitionFrequenciesMatchMatrix) {
  // 30k arrivals: empirical per-row transition frequencies within 2% of
  // the configured matrix.
  const LoadGenConfig config = two_state_config(30000, 5);
  const auto schedule = generate_schedule(config);
  std::size_t from[2] = {0, 0};
  std::size_t moved[2][2] = {{0, 0}, {0, 0}};
  for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
    const std::size_t s = schedule[i].state;
    ++from[s];
    ++moved[s][schedule[i + 1].state];
  }
  for (std::size_t row = 0; row < 2; ++row) {
    ASSERT_GT(from[row], 1000u) << "chain failed to visit state " << row;
    for (std::size_t col = 0; col < 2; ++col) {
      const double empirical = static_cast<double>(moved[row][col]) /
                               static_cast<double>(from[row]);
      EXPECT_NEAR(empirical, config.transition[row * 2 + col], 0.02)
          << "transition " << row << "->" << col;
    }
  }
}

TEST(LoadGenTest, InterArrivalMeanTracksStateRateAndScale) {
  LoadGenConfig config = two_state_config(30000, 9);
  config.rate_scale = 2.0;
  const auto schedule = generate_schedule(config);
  double sum_dt[2] = {0.0, 0.0};
  std::size_t n_dt[2] = {0, 0};
  double prev_t = 0.0;
  for (const ScheduledRequest& s : schedule) {
    sum_dt[s.state] += s.t_s - prev_t;
    ++n_dt[s.state];
    prev_t = s.t_s;
  }
  for (std::size_t state = 0; state < 2; ++state) {
    const double expected =
        1.0 / (config.states[state].rate_rps * config.rate_scale);
    const double mean = sum_dt[state] / static_cast<double>(n_dt[state]);
    EXPECT_NEAR(mean, expected, 0.05 * expected)
        << "state " << state << " inter-arrival mean off";
  }
}

TEST(LoadGenTest, StateOccupancyMatchesStationaryDistribution) {
  // Stationary distribution of {{0.7,0.3},{0.4,0.6}} is (4/7, 3/7).
  const auto schedule = generate_schedule(two_state_config(30000, 3));
  std::size_t counts[2] = {0, 0};
  for (const ScheduledRequest& s : schedule) ++counts[s.state];
  const double total = static_cast<double>(counts[0] + counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / total, 4.0 / 7.0, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / total, 3.0 / 7.0, 0.02);
}

TEST(LoadGenTest, DegenerateSingleStateChainNeedsNoMatrix) {
  LoadGenConfig config;
  config.states = {state_of(250.0, RequestKind::kDecode, 1)};
  config.requests = 2000;
  config.seed = 17;
  const auto schedule = generate_schedule(config);
  ASSERT_EQ(schedule.size(), 2000u);
  for (const ScheduledRequest& s : schedule) EXPECT_EQ(s.state, 0u);
  EXPECT_NEAR(schedule.back().t_s, 2000.0 / 250.0, 0.5);
}

TEST(LoadGenTest, ResponseDigestIdenticalAcrossWorkerCounts) {
  // End-to-end determinism: the same schedule served by 1, 2, and 8 workers
  // must produce the same order-independent response digest. This is the
  // service's core contract — provisioning is a latency knob, never a
  // results knob.
  const auto schedule = generate_schedule(two_state_config(64, 77));
  auto run = [&](std::size_t workers) {
    ServiceConfig config;
    config.workers = workers;
    config.queue_depth = 128;  // > requests: nothing sheds
    LatencyCollector collector;
    InventoryService service(config, collector.sink());
    const ReplayResult replay =
        run_closed_loop(service, collector, schedule, 4 * workers);
    service.stop();
    EXPECT_EQ(replay.accepted, schedule.size());
    EXPECT_EQ(replay.rejected, 0u);
    EXPECT_EQ(collector.completed(), schedule.size());
    return collector.digest();
  };
  const std::uint64_t reference = run(1);
  EXPECT_NE(reference, 0u);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(8), reference);
  EXPECT_EQ(run(8), reference) << "rerun at the same width must also match";
}

TEST(LoadGenTest, ClosedLoopNeverExceedsConcurrencyWindow) {
  constexpr std::size_t kWindow = 3;
  const auto schedule = generate_schedule(two_state_config(120, 13));
  ServiceConfig config;
  config.workers = 8;  // more workers than window: the window must bind
  config.queue_depth = 128;
  LatencyCollector collector;
  InventoryService service(config, collector.sink());
  const ReplayResult replay =
      run_closed_loop(service, collector, schedule, kWindow);
  service.stop();
  EXPECT_EQ(replay.accepted, schedule.size());
  EXPECT_EQ(replay.rejected, 0u);
  EXPECT_LE(service.inflight_peak(), kWindow)
      << "closed loop must keep at most `window` requests in flight";
}

TEST(LoadGenTest, ClosedLoopWindowIsBoundedByQueueCapacity) {
  // A window above the queue capacity would shed at the ring, and every
  // shed request would shrink the effective window for the rest of the
  // run; it is refused before anything is submitted. A window equal to the
  // capacity never sheds.
  const auto schedule = generate_schedule(two_state_config(64, 19));
  ServiceConfig config;
  config.workers = 1;
  config.queue_depth = 2;
  LatencyCollector collector;
  InventoryService service(config, collector.sink());
  const std::size_t capacity = service.queue_capacity();
  EXPECT_THROW(run_closed_loop(service, collector, schedule, capacity + 1),
               std::invalid_argument);
  const ReplayResult replay =
      run_closed_loop(service, collector, schedule, capacity);
  service.stop();
  EXPECT_EQ(replay.accepted, schedule.size());
  EXPECT_EQ(replay.rejected, 0u);
  EXPECT_EQ(service.rejected(), 0u);
}

TEST(LatencyCollectorTest, QuantilesAreExactNearestRank) {
  LatencyCollector collector;
  for (int i = 100; i >= 1; --i) {  // reversed insert: order must not matter
    Response r;
    r.id = static_cast<std::uint64_t>(i);
    r.queue_wait_s = static_cast<double>(i);    // 1..100
    r.service_s = static_cast<double>(i) * 2.0;  // 2..200
    collector.record(r);
  }
  EXPECT_EQ(collector.completed(), 100u);
  EXPECT_EQ(collector.queue_wait_quantile(0.50), 50.0);
  EXPECT_EQ(collector.queue_wait_quantile(0.99), 99.0);
  EXPECT_EQ(collector.queue_wait_quantile(1.0), 100.0);
  EXPECT_EQ(collector.queue_wait_quantile(0.0), 1.0);
  EXPECT_EQ(collector.service_quantile(0.50), 100.0);
  EXPECT_EQ(collector.latency_quantile(1.0), 300.0);
}

TEST(LatencyCollectorTest, DigestIsOrderIndependent) {
  auto digest_of = [](const std::vector<std::uint64_t>& ids) {
    LatencyCollector collector;
    for (const std::uint64_t id : ids) {
      Response r;
      r.id = id;
      r.succeeded = static_cast<std::uint32_t>(id % 3);
      r.sim_elapsed_s = static_cast<double>(id) * 0.25;
      collector.record(r);
    }
    return collector.digest();
  };
  EXPECT_EQ(digest_of({1, 2, 3, 4}), digest_of({4, 3, 2, 1}));
  EXPECT_NE(digest_of({1, 2, 3, 4}), digest_of({1, 2, 3, 5}));
}

}  // namespace
}  // namespace ivnet::svc
