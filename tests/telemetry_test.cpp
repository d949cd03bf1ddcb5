// Rolling-window telemetry and flight-recorder tests: epoch rotation and
// retention, boundary-anchored window queries, coherent merged views under
// a writer storm, the bounded exemplar store's slowest-K contract, the
// JSONL round-trip replay-exemplar depends on, the byte-stable time-series
// emitter, the anomaly detectors, and the lock-free flight ring (wrap,
// Chrome-trace dump, async-signal-safe fd dump, crash handler).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "ivnet/common/json.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/telemetry.hpp"

namespace ivnet::obs {
namespace {

// ---------------------------------------------------------------------------
// WindowedCounter

TEST(WindowedCounter, AttributesToEpochsAndMergesWindows) {
  WindowedCounter c(/*epoch_s=*/1.0, /*epochs=*/10);
  c.add(0.2);
  c.add(0.7);
  c.add(1.3, 3);
  c.add(2.5);
  // Query mid-epoch 2: 1 s window = epoch 2 only.
  EXPECT_EQ(c.total_over(1.0, 2.6), 1u);
  // 2 s window = epochs 1..2; 10 s window = everything.
  EXPECT_EQ(c.total_over(2.0, 2.6), 4u);
  EXPECT_EQ(c.total_over(10.0, 2.6), 6u);
  EXPECT_DOUBLE_EQ(c.rate_over(2.0, 2.6), 2.0);
}

TEST(WindowedCounter, ExactBoundaryAnchorsToTheClosedEpoch) {
  // A sampler on the grid (t = k * epoch_s) must see the epoch it just
  // finished, not the brand-new empty one: at now = 1.0 the 1 s window is
  // (0, 1], which is epoch 0's interior.
  WindowedCounter c(1.0, 10);
  c.add(0.25);
  c.add(0.75);
  EXPECT_EQ(c.total_over(1.0, 1.0), 2u);
  // Just past the boundary the new (empty) epoch is the anchor.
  EXPECT_EQ(c.total_over(1.0, 1.5), 0u);
}

TEST(WindowedCounter, RecyclesExpiredEpochsAndDropsAncientAdds) {
  WindowedCounter c(1.0, /*epochs=*/4);
  c.add(0.5, 100);
  // Jump 10 epochs ahead: epoch 0 has left the retained span. Its slot
  // (10 % 4 == 2, not 0 -- use an epoch congruent to 0) must be recycled.
  c.add(8.5, 7);  // epoch 8, slot 0: recycles epoch 0 in place
  EXPECT_EQ(c.total_over(60.0, 8.6), 7u);
  // An add older than the retained span is dropped, not misfiled.
  c.add(0.5, 50);
  EXPECT_EQ(c.total_over(60.0, 8.6), 7u);
}

TEST(WindowedCounter, NegativeAndZeroTimesClampToEpochZero) {
  WindowedCounter c(1.0, 4);
  c.add(-5.0);
  c.add(0.0);
  EXPECT_EQ(c.total_over(1.0, 0.5), 2u);
}

// ---------------------------------------------------------------------------
// WindowedHistogram

TEST(WindowedHistogram, WindowViewMergesOnlyCoveringEpochs) {
  WindowedHistogram h({1.0, 10.0, 100.0}, 1.0, 10);
  h.observe(0.5, 5.0);    // epoch 0, bucket (1, 10]
  h.observe(1.5, 50.0);   // epoch 1, bucket (10, 100]
  h.observe(2.5, 0.5);    // epoch 2, bucket (-inf, 1]
  const Histogram::View last1 = h.view_over(1.0, 2.9);
  EXPECT_EQ(last1.count, 1u);
  EXPECT_DOUBLE_EQ(last1.min, 0.5);
  EXPECT_DOUBLE_EQ(last1.max, 0.5);
  const Histogram::View last3 = h.view_over(3.0, 2.9);
  EXPECT_EQ(last3.count, 3u);
  EXPECT_DOUBLE_EQ(last3.min, 0.5);
  EXPECT_DOUBLE_EQ(last3.max, 50.0);
  ASSERT_EQ(last3.counts.size(), 4u);
  EXPECT_EQ(last3.counts[0], 1u);
  EXPECT_EQ(last3.counts[1], 1u);
  EXPECT_EQ(last3.counts[2], 1u);
  EXPECT_EQ(last3.counts[3], 0u);
}

TEST(WindowedHistogram, QuantileMatchesCumulativeHistogramOnSameData) {
  // Same observations into a windowed histogram (single epoch) and a plain
  // Histogram: the merged view must give the identical quantile, because
  // both go through Histogram::quantile_of.
  const std::vector<double> bounds = Histogram::default_bounds();
  WindowedHistogram wh(bounds, 100.0, 4);  // one wide epoch
  Histogram h(bounds);
  for (int i = 1; i <= 1000; ++i) {
    const double v = static_cast<double>(i) * 0.01;
    wh.observe(0.5, v);
    h.observe(v);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(wh.quantile_over(100.0, 0.5, q), h.quantile(q)) << q;
  }
}

TEST(WindowedHistogram, ViewIsCoherentUnderObserveStorm) {
  // A reader merging the window mid-storm must always see an internally
  // consistent view: bucket counts sum to count, and min/max bracket a
  // non-empty view. (Same contract Histogram::view() pins, extended to
  // the epoch-merged read path.)
  WindowedHistogram h({1.0, 2.0, 5.0}, 1.0, 8);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    double t = 0.0;
    std::uint64_t state = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double v = static_cast<double>(state >> 60);  // 0..15
      h.observe(t, v);
      t += 0.001;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const Histogram::View v = h.view_over(8.0, 8.0);
    std::uint64_t sum = 0;
    for (const std::uint64_t b : v.counts) sum += b;
    ASSERT_EQ(sum, v.count);
    if (v.count > 0) {
      ASSERT_LE(v.min, v.max);
      ASSERT_GE(v.min, 0.0);
      ASSERT_LE(v.max, 15.0);
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// ExemplarStore

Exemplar make_exemplar(std::uint64_t id, double t_s, double service_s) {
  Exemplar e;
  e.id = id;
  e.seed = id * 1000;
  e.t_s = t_s;
  e.queue_wait_s = 0.0;
  e.service_s = service_s;
  e.response_hash = id ^ 0xabcdefull;
  return e;
}

TEST(ExemplarStore, KeepsTheKSlowestPerEpoch) {
  ExemplarStore store(/*k_per_epoch=*/2, 1.0, 10);
  store.offer(make_exemplar(1, 0.1, 0.010));
  store.offer(make_exemplar(2, 0.2, 0.030));
  store.offer(make_exemplar(3, 0.3, 0.020));  // evicts id 1 (fastest)
  store.offer(make_exemplar(4, 0.4, 0.005));  // too fast, not kept
  EXPECT_EQ(store.size(), 2u);
  const std::vector<Exemplar> slowest = store.slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].id, 2u);  // 30 ms
  EXPECT_EQ(slowest[1].id, 3u);  // 20 ms
}

TEST(ExemplarStore, TiesKeepIncumbentAndOrderById) {
  ExemplarStore store(1, 1.0, 10);
  store.offer(make_exemplar(7, 0.1, 0.010));
  store.offer(make_exemplar(8, 0.2, 0.010));  // equal latency: incumbent stays
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.slowest()[0].id, 7u);
  // Across epochs, equal latencies order by ascending id.
  store.offer(make_exemplar(3, 1.5, 0.010));
  const std::vector<Exemplar> slowest = store.slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].id, 3u);
  EXPECT_EQ(slowest[1].id, 7u);
}

TEST(ExemplarStore, EpochRotationBoundsMemory) {
  ExemplarStore store(4, 1.0, /*epochs=*/4);
  for (int epoch = 0; epoch < 100; ++epoch) {
    for (int i = 0; i < 10; ++i) {
      store.offer(make_exemplar(static_cast<std::uint64_t>(epoch * 10 + i),
                                static_cast<double>(epoch) + 0.5,
                                0.001 * (i + 1)));
    }
  }
  // At most epochs * k exemplars survive, all from the last 4 epochs.
  EXPECT_LE(store.size(), 16u);
  for (const Exemplar& e : store.slowest()) {
    EXPECT_GE(e.t_s, 96.0);
  }
}

// ---------------------------------------------------------------------------
// Exemplar JSONL round-trip

TEST(ExemplarJson, RoundTripsFullIdentityIncluding64BitFields) {
  Exemplar e;
  e.kind = 2;
  e.trials = 16;
  e.antennas = 4;
  e.id = 123456789;
  // Above 2^53: a double-typed parse would corrupt these. The JSONL format
  // carries them as strings precisely so this round-trips exactly.
  e.seed = 18446744073709551615ull;  // u64 max
  e.response_hash = 0x8000000000000001ull;
  e.snr_db = 14.5;
  e.medium_loss_db = -3.25;
  e.t_s = 12.75;
  e.queue_wait_s = 0.001953125;  // exact binary fractions round-trip
  e.service_s = 0.03125;
  e.stage_s[0] = 0.015625;
  e.stage_s[1] = 0.015625;
  e.stages = 2;

  const std::string line = exemplar_json(e);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line (JSONL)

  Exemplar parsed;
  ASSERT_TRUE(parse_exemplar_line(line, parsed));
  EXPECT_EQ(parsed.kind, e.kind);
  EXPECT_EQ(parsed.trials, e.trials);
  EXPECT_EQ(parsed.antennas, e.antennas);
  EXPECT_EQ(parsed.id, e.id);
  EXPECT_EQ(parsed.seed, e.seed);
  EXPECT_EQ(parsed.response_hash, e.response_hash);
  EXPECT_DOUBLE_EQ(parsed.snr_db, e.snr_db);
  EXPECT_DOUBLE_EQ(parsed.medium_loss_db, e.medium_loss_db);
  EXPECT_DOUBLE_EQ(parsed.queue_wait_s, e.queue_wait_s);
  EXPECT_DOUBLE_EQ(parsed.service_s, e.service_s);
}

TEST(ExemplarJson, ParseRejectsBlankAndForeignLines) {
  Exemplar out;
  EXPECT_FALSE(parse_exemplar_line("", out));
  EXPECT_FALSE(parse_exemplar_line("   ", out));
  EXPECT_FALSE(parse_exemplar_line("# comment", out));
  // A JSON object missing the identity anchors is not an exemplar.
  EXPECT_FALSE(parse_exemplar_line("{\"id\":1,\"kind\":0}", out));
}

// ---------------------------------------------------------------------------
// ServiceTelemetry

TEST(ServiceTelemetry, SampleJsonShapeAndWindowSemantics) {
  ServiceTelemetry t;
  for (int i = 0; i < 30; ++i) {
    const double at = 0.1 + static_cast<double>(i);  // one per second
    t.on_accept(at);
    Exemplar e = make_exemplar(static_cast<std::uint64_t>(i), at, 0.002);
    e.queue_wait_s = 0.001;
    t.on_complete(e);
  }
  t.on_shed(29.1);
  const std::string sample = t.sample_json(29.5);
  // Shape: three windows, fixed field order.
  EXPECT_NE(sample.find("\"t_s\":29.5"), std::string::npos);
  EXPECT_NE(sample.find("\"window_s\":1"), std::string::npos);
  EXPECT_NE(sample.find("\"window_s\":10"), std::string::npos);
  EXPECT_NE(sample.find("\"window_s\":60"), std::string::npos);
  // Window semantics: 1/10/60 s trailing windows see 1/10/30 completions.
  EXPECT_DOUBLE_EQ(json_find_number(sample, "completed", -1.0), 1.0);
  EXPECT_EQ(t.completed().total_over(10.0, 29.5), 10u);
  EXPECT_EQ(t.completed().total_over(60.0, 29.5), 30u);
  EXPECT_EQ(t.shed().total_over(1.0, 29.5), 1u);
}

TEST(ServiceTelemetry, EqualIngestsEmitIdenticalBytes) {
  // The byte-stability contract: two telemetry instances fed the same
  // (timestamped) history produce bit-identical samples and exemplar dumps.
  const auto feed = [](ServiceTelemetry& t) {
    for (int i = 0; i < 100; ++i) {
      const double at = 0.05 * static_cast<double>(i);
      t.on_accept(at);
      Exemplar e = make_exemplar(static_cast<std::uint64_t>(i), at,
                                 0.0001 * static_cast<double>(i % 17));
      t.on_complete(e);
      if (i % 9 == 0) t.on_shed(at);
    }
  };
  ServiceTelemetry a, b;
  feed(a);
  feed(b);
  EXPECT_EQ(a.sample_json(5.0), b.sample_json(5.0));
  EXPECT_EQ(a.exemplars_jsonl(), b.exemplars_jsonl());
}

TEST(ServiceTelemetry, AnomalyDetectorsFireOnThresholds) {
  TelemetryConfig config;
  config.shed_storm_rate_rps = 50.0;
  config.queue_saturated_p99_s = 0.5;
  ServiceTelemetry t(config);
  EXPECT_FALSE(t.check_anomalies(0.5).any());

  for (int i = 0; i < 60; ++i) t.on_shed(0.3);
  EXPECT_TRUE(t.check_anomalies(0.5).shed_storm);
  EXPECT_FALSE(t.check_anomalies(0.5).queue_saturated);

  Exemplar slow = make_exemplar(1, 0.4, 0.1);
  slow.queue_wait_s = 0.9;
  t.on_complete(slow);
  EXPECT_TRUE(t.check_anomalies(0.5).queue_saturated);
  // Two epochs later the storm has left the 1 s window.
  EXPECT_FALSE(t.check_anomalies(2.5).any());
}

TEST(ServiceTelemetry, AnomalyDetectorsCanBeDisabled) {
  TelemetryConfig config;
  config.shed_storm_rate_rps = 0.0;    // disabled
  config.queue_saturated_p99_s = 0.0;  // disabled
  ServiceTelemetry t(config);
  for (int i = 0; i < 1000; ++i) t.on_shed(0.3);
  Exemplar slow = make_exemplar(1, 0.4, 5.0);
  slow.queue_wait_s = 5.0;
  t.on_complete(slow);
  EXPECT_FALSE(t.check_anomalies(0.5).any());
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, DumpIsValidChromeTraceWithPairedStages) {
  FlightRecorder rec(/*rings=*/2, /*slots_per_ring=*/64);
  rec.record(0, FlightEvent::kEnqueue, 0.001, 42);
  rec.record(1, FlightEvent::kDequeue, 0.002, 42);
  rec.record(1, FlightEvent::kStageEnter, 0.003, 42, 0);
  rec.record(1, FlightEvent::kStageExit, 0.004, 42, 0);
  rec.record(1, FlightEvent::kShed, 0.005, 43);
  EXPECT_EQ(rec.total_events(), 5u);

  const std::string trace = rec.dump_json();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  // Timestamps are integer microseconds; 0.003 s -> 3000.
  EXPECT_NE(trace.find("\"ts\":3000"), std::string::npos);
  // tid = ring index: submit events on tid 0, worker events on tid 1.
  EXPECT_NE(trace.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":1"), std::string::npos);
  // Balanced braces/brackets: a cheap structural validity check that
  // catches truncation without a parser. (python3 validates it in CI.)
  long depth = 0;
  for (const char c : trace) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEvents) {
  FlightRecorder rec(1, /*slots_per_ring=*/8);
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.record(0, FlightEvent::kEnqueue, 0.001 * static_cast<double>(i), i);
  }
  EXPECT_EQ(rec.total_events(), 100u);
  const std::string trace = rec.dump_json();
  // Only the newest 8 survive: id 92 is retained, id 91 is overwritten.
  EXPECT_NE(trace.find("\"id\":99,"), std::string::npos);
  EXPECT_NE(trace.find("\"id\":92,"), std::string::npos);
  EXPECT_EQ(trace.find("\"id\":91,"), std::string::npos);
}

TEST(FlightRecorder, FdDumpMatchesStringDump) {
  FlightRecorder rec(2, 32);
  rec.record(0, FlightEvent::kEnqueue, 0.010, 1);
  rec.record(1, FlightEvent::kBrownout, 0.020, 1, 3);
  rec.record(1, FlightEvent::kRetry, 0.030, 1, 2);
  rec.record(1, FlightEvent::kAnomaly, 0.040, 0, 1);
  const std::string expected = rec.dump_json();

  const std::string path = testing::TempDir() + "flight_fd_dump.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const long written = rec.dump_to_fd(fileno(f));
  std::fclose(f);
  EXPECT_EQ(written, static_cast<long>(expected.size()));

  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  std::string actual(expected.size() + 64, '\0');
  const std::size_t n = std::fread(actual.data(), 1, actual.size(), in);
  std::fclose(in);
  actual.resize(n);
  EXPECT_EQ(actual, expected);
  std::remove(path.c_str());
}

TEST(FlightRecorder, EventNamesAreStable) {
  EXPECT_STREQ(flight_event_name(FlightEvent::kEnqueue), "enqueue");
  EXPECT_STREQ(flight_event_name(FlightEvent::kShed), "shed");
  EXPECT_STREQ(flight_event_name(FlightEvent::kAnomaly), "anomaly");
}

TEST(FlightRecorder, OutOfRangeRingClampsInsteadOfCorrupting) {
  FlightRecorder rec(2, 16);
  rec.record(99, FlightEvent::kEnqueue, 0.001, 7);  // clamps to last ring
  EXPECT_EQ(rec.total_events(), 1u);
  EXPECT_NE(rec.dump_json().find("\"tid\":1"), std::string::npos);
}

TEST(FlightRecorderDeathTest, CrashHandlerDumpsBeforeTheProcessDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlightRecorder rec(1, 32);
  rec.record(0, FlightEvent::kEnqueue, 0.001, 11);
  const std::string path = testing::TempDir() + "flight_crash_dump.json";
  std::remove(path.c_str());
  // The child installs the handler and aborts; the handler must write the
  // dump before the (re-raised, default-disposition) signal kills it.
  EXPECT_EXIT(
      {
        FlightRecorder::install_crash_handler(&rec, path.c_str());
        std::abort();
      },
      testing::KilledBySignal(SIGABRT), "");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "crash handler did not write " << path;
  char buf[64] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_GT(n, 0u);
  EXPECT_NE(std::string(buf).find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivnet::obs
