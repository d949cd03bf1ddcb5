// Service front-end suite: the MPMC ring and the InventoryService
// lifecycle (exactly-once execution, bounded-queue shedding,
// graceful-shutdown drain, scalar-oracle response identity). The
// contention tests are the ASan/TSan targets: tools/ci.sh runs this binary
// under both sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/telemetry.hpp"
#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/svc/mpmc_queue.hpp"
#include "ivnet/svc/service.hpp"

namespace ivnet::svc {
namespace {

// ---------------------------------------------------------------- MPMC ring

TEST(MpmcQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcRingQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcRingQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcRingQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcRingQueue<int>(256).capacity(), 256u);
  EXPECT_EQ(MpmcRingQueue<int>(257).capacity(), 512u);
}

TEST(MpmcQueueTest, RejectsWhenFullRecoversAfterPop) {
  MpmcRingQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99)) << "full ring must shed, not block";
  int out = -1;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(queue.try_push(4)) << "one pop frees exactly one slot";
  EXPECT_FALSE(queue.try_push(5));
}

TEST(MpmcQueueTest, PopOnEmptyFails) {
  MpmcRingQueue<int> queue(4);
  int out = 0;
  EXPECT_FALSE(queue.try_pop(out));
  queue.try_push(7);
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(MpmcQueueTest, FifoPerProducerWithSingleConsumer) {
  // Two producers interleave arbitrarily, but each producer's own values
  // must come out in the order it pushed them.
  constexpr std::uint64_t kPerProducer = 20000;
  MpmcRingQueue<std::uint64_t> queue(64);
  std::atomic<bool> go{false};
  auto producer = [&](std::uint64_t tag) {
    while (!go.load()) {
    }
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      const std::uint64_t value = (tag << 32) | i;
      while (!queue.try_push(value)) std::this_thread::yield();
    }
  };
  std::thread p0(producer, 0), p1(producer, 1);
  std::int64_t last[2] = {-1, -1};
  std::uint64_t popped = 0;
  go.store(true);
  while (popped < 2 * kPerProducer) {
    std::uint64_t value = 0;
    if (!queue.try_pop(value)) continue;
    const std::size_t tag = value >> 32;
    const auto seq = static_cast<std::int64_t>(value & 0xffffffffull);
    ASSERT_EQ(seq, last[tag] + 1) << "producer " << tag << " reordered";
    last[tag] = seq;
    ++popped;
  }
  p0.join();
  p1.join();
}

TEST(MpmcQueueTest, ExactlyOnceUnderProducerConsumerContention) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 8000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  MpmcRingQueue<std::size_t> queue(32);  // small: force wraparound pressure
  std::vector<std::atomic<std::uint32_t>> seen(kTotal);
  for (auto& s : seen) s.store(0);
  std::atomic<std::size_t> consumed{0};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t value = p * kPerProducer + i;
        while (!queue.try_push(value)) std::this_thread::yield();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::size_t value = 0;
        if (queue.try_pop(value)) {
          seen[value].fetch_add(1);
          if (consumed.fetch_add(1) + 1 == kTotal) return;
        } else if (consumed.load() >= kTotal) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t v = 0; v < kTotal; ++v) {
    ASSERT_EQ(seen[v].load(), 1u) << "value " << v << " not exactly-once";
  }
  std::size_t drained = 0;
  EXPECT_FALSE(queue.try_pop(drained)) << "ring must end empty";
}

TEST(MpmcQueueTest, CreditHolderRetriesTransientEmptyPop) {
  // The service pairs the ring with a counting semaphore: one credit per
  // push. Under concurrent producers a credit can land BEFORE the FIFO head
  // is published (producer A preempted between claiming its slot and
  // storing its seq while producer B completes a later push), so a consumer
  // holding a credit can see try_pop fail transiently. The consumer
  // contract is: retry until the in-flight element lands; only exit on
  // empty once the stop flag says no element can be in flight. A consumer
  // that instead treated the first empty pop as "done" would strand
  // elements here and this test would time out / fail the count.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 20000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  MpmcRingQueue<std::size_t> queue(8);  // tiny: maximize claim/publish races
  std::counting_semaphore<> credits{0};
  std::atomic<bool> stopping{false};
  std::atomic<std::size_t> consumed{0};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        while (!queue.try_push(i)) std::this_thread::yield();
        credits.release();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        credits.acquire();
        std::size_t value = 0;
        while (!queue.try_pop(value)) {
          if (stopping.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
        consumed.fetch_add(1);
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) threads[p].join();
  // Every credit is now released; consumers must drain every element
  // without any shutdown help.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (consumed.load() < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(consumed.load(), kTotal)
      << "credit holder gave up on a transiently-empty pop";
  stopping.store(true, std::memory_order_release);
  credits.release(static_cast<std::ptrdiff_t>(kConsumers));
  for (std::size_t c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
}

// ------------------------------------------------------------ inline pool

TEST(ScopedInlineParallelTest, ForcesInlineExecutionAndRestores) {
  set_parallel_threads(8);
  std::thread::id caller = std::this_thread::get_id();
  {
    ScopedInlineParallel inline_scope;
    std::atomic<bool> foreign{false};
    parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) foreign.store(true);
    });
    EXPECT_FALSE(foreign.load())
        << "parallel_for inside the scope must run on the calling thread";
  }
  set_parallel_threads(0);
}

// ---------------------------------------------------------------- service

/// Thread-safe test sink keeping a copy of every response by id.
struct CaptureSink {
  std::mutex mutex;
  std::map<std::uint64_t, Response> by_id;

  InventoryService::CompletionSink sink() {
    return [this](const Response& r) {
      std::lock_guard<std::mutex> lock(mutex);
      by_id[r.id] = r;
    };
  }
};

Request decode_request(std::uint64_t id, std::uint64_t seed,
                       std::uint32_t trials = 3) {
  Request request;
  request.kind = RequestKind::kDecode;
  request.id = id;
  request.seed = seed;
  request.trials = trials;
  request.antennas = 2;
  request.snr_db = 14.0;
  return request;
}

TEST(InventoryServiceTest, CompletesEveryAcceptedRequestMatchesOracle) {
  constexpr std::size_t kRequests = 24;
  ServiceConfig config;
  config.workers = 4;
  config.queue_depth = 64;

  CaptureSink capture;
  std::vector<Request> submitted;
  {
    InventoryService service(config, capture.sink());
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Request request = decode_request(i, 1000 + 17 * i);
      ASSERT_TRUE(service.submit(request));
      submitted.push_back(request);
    }
    service.stop();
    EXPECT_EQ(service.accepted(), kRequests);
    EXPECT_EQ(service.completed(), kRequests);
    EXPECT_EQ(service.rejected(), 0u);
    EXPECT_EQ(service.inflight(), 0u);
  }
  ASSERT_EQ(capture.by_id.size(), kRequests);

  // Every response must be bitwise what the scalar oracle produces for the
  // same request: stream(seed, t) per trial, the exact link_config_for
  // template. This is the determinism contract submit-order, worker count,
  // and arrival timing are excluded from.
  for (const Request& request : submitted) {
    const auto it = capture.by_id.find(request.id);
    ASSERT_NE(it, capture.by_id.end());
    const Response& response = it->second;
    EXPECT_EQ(response.trials, request.trials);

    const ImpairedLinkConfig link = link_config_for(config, request);
    std::uint32_t oracle_succeeded = 0;
    double oracle_elapsed = 0.0;
    for (std::uint32_t t = 0; t < request.trials; ++t) {
      Rng rng = Rng::stream(request.seed, t);
      const LinkSessionReport report = run_impaired_link_session(link, rng);
      oracle_succeeded += report.success ? 1 : 0;
      oracle_elapsed += report.elapsed_s;
    }
    EXPECT_EQ(response.succeeded, oracle_succeeded)
        << "request " << request.id;
    EXPECT_EQ(response.sim_elapsed_s, oracle_elapsed)
        << "request " << request.id;
  }
}

TEST(InventoryServiceTest, InventoryKindUsesHeavierRecoveryTemplate) {
  ServiceConfig config;
  Request request = decode_request(0, 5);
  request.kind = RequestKind::kInventory;
  const ImpairedLinkConfig link = link_config_for(config, request);
  EXPECT_GE(link.recovery.max_attempts, 3);
  EXPECT_EQ(link.adaptive_q.initial_q, 2.0);
  EXPECT_EQ(link.num_antennas, 2u);
  EXPECT_EQ(link.snr_db, 14.0);
}

TEST(InventoryServiceTest, BoundedQueueShedsWhenFull) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_depth = 2;

  // The sink runs on the worker after its request has retired, so a sink
  // that waits on `released` blocks the only worker and the ring fills
  // behind it. EXPECT, not ASSERT, below: every path must reach the release.
  std::atomic<bool> released{false};
  InventoryService service(config,
                           [&](const Response&) { released.wait(false); });
  EXPECT_TRUE(service.submit(decode_request(0, 0, 1)));
  while (service.completed() == 0) std::this_thread::yield();

  EXPECT_TRUE(service.submit(decode_request(1, 1, 1)));
  EXPECT_TRUE(service.submit(decode_request(2, 2, 1)));
  EXPECT_FALSE(service.submit(decode_request(3, 3, 1)))
      << "third request must shed: ring capacity is 2 and the worker is "
         "blocked";
  EXPECT_EQ(service.rejected(), 1u);

  released.store(true);
  released.notify_all();
  service.stop();
  EXPECT_EQ(service.accepted(), 3u);
  EXPECT_EQ(service.completed(), 3u) << "shutdown must drain the backlog";
}

TEST(InventoryServiceTest, ConcurrentProducersNeverStrandRequests) {
  // submit() is MT-safe for producers. Hammer a tiny ring from several
  // threads so producers constantly race each other's claim/publish window,
  // then require every accepted request to COMPLETE before stop() is
  // called: a worker that mistook a transiently-empty pop for a shutdown
  // credit would exit mid-run and strand an accepted request until stop(),
  // which this wait would catch as a timeout.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 150;
  ServiceConfig config;
  config.workers = 4;
  config.queue_depth = 16;  // small: keep workers racing the publish window

  std::atomic<std::size_t> sink_calls{0};
  InventoryService service(
      config, [&](const Response&) { sink_calls.fetch_add(1); });

  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t id = p * kPerProducer + i;
        if (service.submit(decode_request(id, id, 1))) {
          accepted.fetch_add(1);
        }
        // No yield: shed freely, maximize producer-producer contention.
      }
    });
  }
  for (auto& t : producers) t.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.completed() < accepted.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.completed(), accepted.load())
      << "request stranded before stop(): a worker exited mid-run";
  service.stop();
  EXPECT_EQ(service.completed(), accepted.load());
  EXPECT_EQ(sink_calls.load(), accepted.load());
  EXPECT_EQ(service.accepted(), accepted.load());
}

TEST(InventoryServiceTest, GracefulShutdownDrainsBacklog) {
  ServiceConfig config;
  config.workers = 2;
  config.queue_depth = 512;

  std::atomic<std::size_t> completions{0};
  InventoryService service(config,
                           [&](const Response&) { completions.fetch_add(1); });
  constexpr std::size_t kRequests = 300;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.submit(decode_request(i, i, 1)));
  }
  // Stop immediately: nearly all of the backlog is still queued.
  service.stop();
  EXPECT_EQ(completions.load(), kRequests);
  EXPECT_EQ(service.completed(), kRequests);

  // Post-stop submits are refused and counted separately.
  EXPECT_FALSE(service.submit(decode_request(kRequests, 0, 1)));
  EXPECT_EQ(service.rejected(), 0u)
      << "stopped-service refusals are not queue sheds";
}

TEST(InventoryServiceTest, StopIsIdempotentAndDestructorSafe) {
  ServiceConfig config;
  config.workers = 2;
  InventoryService service(config, nullptr);
  ASSERT_TRUE(service.submit(decode_request(0, 1, 1)));
  service.stop();
  service.stop();  // second stop is a no-op
  EXPECT_EQ(service.completed(), 1u);
}

TEST(InventoryServiceTest, PlanRequestsAreDeterministic) {
  ServiceConfig config;
  config.workers = 2;

  auto run_plan = [&](std::uint64_t seed) {
    CaptureSink capture;
    InventoryService service(config, capture.sink());
    Request request;
    request.kind = RequestKind::kPlan;
    request.id = 1;
    request.seed = seed;
    request.antennas = 6;
    EXPECT_TRUE(service.submit(request));
    service.stop();
    return capture.by_id.at(1).plan_score;
  };
  const double a = run_plan(7);
  const double b = run_plan(7);
  EXPECT_EQ(a, b) << "same seed must reproduce the same plan score";
  EXPECT_GT(a, 0.0);
  EXPECT_NE(run_plan(8), a) << "different seed should explore differently";
}

TEST(InventoryServiceTest, TelemetryObservesWithoutChangingResponses) {
  // The observability stack must be a pure observer: attaching windows,
  // exemplars, and the flight recorder cannot change a single response
  // byte, and every captured exemplar must replay to its recorded hash
  // through the same execute_request path the workers run.
  constexpr std::size_t kRequests = 24;
  const auto run = [&](obs::ServiceTelemetry* telemetry,
                       obs::FlightRecorder* flight) {
    ServiceConfig config;
    config.workers = 2;
    config.queue_depth = 64;
    config.telemetry = telemetry;
    config.flight = flight;
    CaptureSink capture;
    InventoryService service(config, capture.sink());
    for (std::size_t i = 0; i < kRequests; ++i) {
      Request request = decode_request(i, 1000 + 17 * i);
      request.offered_t_s = 0.1 * static_cast<double>(i);
      EXPECT_TRUE(service.submit(request));
    }
    service.stop();
    std::uint64_t digest = 0;
    for (const auto& [id, response] : capture.by_id) {
      digest ^= response_hash(response);
    }
    return digest;
  };

  const std::uint64_t bare = run(nullptr, nullptr);
  obs::ServiceTelemetry telemetry;
  obs::FlightRecorder flight(/*rings=*/3);
  const std::uint64_t instrumented = run(&telemetry, &flight);
  EXPECT_EQ(instrumented, bare);

  // Completions land in the epochs of their offered times.
  EXPECT_EQ(telemetry.window(60.0, 2.5).completed(), kRequests);
  EXPECT_GT(telemetry.exemplars().size(), 0u);
  // Every request leaves at least enqueue + dequeue in the rings.
  EXPECT_GE(flight.total_events(), 2 * kRequests);

  // Replay every exemplar through the worker's own code path.
  ScopedInlineParallel inline_scope;
  ServiceConfig replay_config;
  DspWorkspace workspace;
  for (const obs::Exemplar& e : telemetry.exemplars()) {
    const Response response =
        execute_request(replay_config, request_from_exemplar(e), workspace);
    EXPECT_EQ(response_hash(response), e.response_hash)
        << "exemplar id " << e.id << " did not replay to its recorded hash";
  }
}

TEST(InventoryServiceTest, RequestFromExemplarGivesBackTheRequestRun) {
  // An exemplar the service captured converts back to the request it ran;
  // one whose kind or antenna count a Request cannot hold is refused.
  ServiceConfig config;
  config.workers = 1;
  obs::ServiceTelemetry telemetry;
  config.telemetry = &telemetry;
  Request submitted = decode_request(7, 4321, /*trials=*/2);
  submitted.kind = RequestKind::kInventory;
  submitted.antennas = 3;
  submitted.medium_loss_db = 6.5;
  {
    InventoryService service(config, nullptr);
    ASSERT_TRUE(service.submit(submitted));
    service.stop();
  }
  const std::vector<obs::Exemplar> exemplars = telemetry.exemplars();
  ASSERT_EQ(exemplars.size(), 1u);
  const Request replayed = request_from_exemplar(exemplars.front());
  EXPECT_EQ(replayed.kind, submitted.kind);
  EXPECT_EQ(replayed.antennas, submitted.antennas);
  EXPECT_EQ(replayed.trials, submitted.trials);
  EXPECT_EQ(replayed.id, submitted.id);
  EXPECT_EQ(replayed.seed, submitted.seed);
  EXPECT_EQ(replayed.snr_db, submitted.snr_db);
  EXPECT_EQ(replayed.medium_loss_db, submitted.medium_loss_db);

  obs::Exemplar bad_kind = exemplars.front();
  bad_kind.kind = 3;
  EXPECT_THROW(request_from_exemplar(bad_kind), std::invalid_argument);
  obs::Exemplar bad_antennas = exemplars.front();
  bad_antennas.antennas = 65536;
  EXPECT_THROW(request_from_exemplar(bad_antennas), std::invalid_argument);
  bad_antennas.antennas = 65535;
  EXPECT_EQ(request_from_exemplar(bad_antennas).antennas, 65535u);
}

TEST(InventoryServiceTest, TelemetryStampsEveryIngestWithTheOfferedTime) {
  // Windows, exemplars and flight events attribute a request to its offered
  // schedule time, whatever the wall clock reads: a schedule that starts at
  // 100 s lands in the window ending at 101 s.
  constexpr std::size_t kRequests = 10;
  const auto offered_s = [](std::uint64_t id) {
    return 100.0 + 0.1 * static_cast<double>(id);
  };
  ServiceConfig config;
  obs::ServiceTelemetry telemetry;
  obs::FlightRecorder flight(config.workers + 1);
  config.telemetry = &telemetry;
  config.flight = &flight;
  {
    InventoryService service(config, nullptr);
    for (std::size_t i = 0; i < kRequests; ++i) {
      Request request = decode_request(i, 2000 + 31 * i, /*trials=*/1);
      request.offered_t_s = offered_s(i);
      ASSERT_TRUE(service.submit(request));
    }
    service.stop();
  }

  EXPECT_EQ(telemetry.window(10.0, 101.0).completed(), kRequests);
  const std::vector<obs::Exemplar> exemplars = telemetry.exemplars();
  ASSERT_FALSE(exemplars.empty());
  for (const obs::Exemplar& e : exemplars) {
    EXPECT_EQ(e.t_s, offered_s(e.id)) << "exemplar id " << e.id;
  }
  // One enqueue event per request, at the offered time in microseconds.
  const std::string dump = flight.dump_json();
  const std::string enqueue = "{\"name\":\"enqueue\"";
  std::size_t enqueues = 0;
  for (std::size_t at = dump.find(enqueue); at != std::string::npos;
       at = dump.find(enqueue, at + 1)) {
    const std::uint64_t ts_us =
        std::stoull(dump.substr(dump.find("\"ts\":", at) + 5));
    const std::uint64_t id =
        std::stoull(dump.substr(dump.find("\"id\":", at) + 5));
    EXPECT_EQ(ts_us, static_cast<std::uint64_t>(offered_s(id) * 1e6))
        << "request " << id;
    ++enqueues;
  }
  EXPECT_EQ(enqueues, kRequests);
}

}  // namespace
}  // namespace ivnet::svc
