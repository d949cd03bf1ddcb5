// Rolling-window telemetry and flight-recorder tests: the epoch ring's
// attribution, retention and recycling, boundary-anchored window queries,
// coherent merged windows under a writer storm, the per-epoch slowest-K
// exemplars, the JSONL round-trip replay-exemplar depends on, the
// byte-stable time-series emitter, the anomaly detectors and their
// episodes, and the lock-free flight ring (wrap, Chrome-trace dump,
// async-signal-safe fd dump, crash handler).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <csignal>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ivnet/common/json.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/telemetry.hpp"

namespace ivnet::obs {
namespace {

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

/// A completion at t_s whose queue wait is `wait_s`.
Exemplar waited(std::uint64_t id, double t_s, double wait_s) {
  Exemplar e = make_exemplar(id, t_s, 0.001);
  e.queue_wait_s = wait_s;
  return e;
}

std::vector<std::uint64_t> ids(const std::vector<Exemplar>& exemplars) {
  std::vector<std::uint64_t> out;
  for (const Exemplar& e : exemplars) out.push_back(e.id);
  return out;
}

// ---------------------------------------------------------------------------
// ServiceTelemetry: the epoch ring

TEST(ServiceTelemetry, AttributesToEpochsAndMergesWindows) {
  ServiceTelemetry t;
  t.on_accept(0.2);
  t.on_accept(0.7);
  for (int i = 0; i < 3; ++i) t.on_accept(1.3);
  t.on_accept(2.5);
  t.on_shed(1.9);
  // Query mid-epoch 2: 1 s window = epoch 2 only.
  EXPECT_EQ(t.window(1.0, 2.6).accepted, 1u);
  EXPECT_EQ(t.window(1.0, 2.6).shed, 0u);
  // 2 s window = epochs 1..2; 10 s window = everything.
  EXPECT_EQ(t.window(2.0, 2.6).accepted, 4u);
  EXPECT_EQ(t.window(2.0, 2.6).shed, 1u);
  EXPECT_EQ(t.window(10.0, 2.6).accepted, 6u);

  // Latency rows merge the same epochs: one queue wait per epoch, each in
  // its own bucket.
  t.on_complete(waited(1, 0.5, 0.005));
  t.on_complete(waited(2, 1.5, 0.05));
  t.on_complete(waited(3, 2.5, 0.0005));
  const TelemetryWindow last1 = t.window(1.0, 2.9);
  EXPECT_EQ(last1.completed(), 1u);
  EXPECT_DOUBLE_EQ(last1.queue_wait.min, 0.0005);
  EXPECT_DOUBLE_EQ(last1.queue_wait.max, 0.0005);
  const TelemetryWindow last3 = t.window(3.0, 2.9);
  EXPECT_EQ(last3.completed(), 3u);
  EXPECT_EQ(last3.service_time.count, 3u);
  EXPECT_DOUBLE_EQ(last3.queue_wait.min, 0.0005);
  EXPECT_DOUBLE_EQ(last3.queue_wait.max, 0.05);
  ASSERT_EQ(last3.queue_wait.counts.size(), latency_bounds().size() + 1);
  std::size_t filled = 0;
  for (const std::uint64_t n : last3.queue_wait.counts) {
    EXPECT_LE(n, 1u);
    filled += n;
  }
  EXPECT_EQ(filled, 3u);
}

TEST(ServiceTelemetry, ExactBoundaryAnchorsToTheClosedEpoch) {
  // A sampler on the grid (t = k * epoch_s) must see the epoch it just
  // finished, not the brand-new empty one: at now = 1.0 the 1 s window is
  // (0, 1], which is epoch 0's interior.
  ServiceTelemetry t;
  t.on_accept(0.25);
  t.on_accept(0.75);
  EXPECT_EQ(t.window(1.0, 1.0).accepted, 2u);
  // Just past the boundary the new (empty) epoch is the anchor.
  EXPECT_EQ(t.window(1.0, 1.5).accepted, 0u);
}

TEST(ServiceTelemetry, RecyclesExpiredEpochsAndDropsAncientIngests) {
  constexpr double kSpan = static_cast<double>(ServiceTelemetry::kEpochs);
  ServiceTelemetry t;
  for (int i = 0; i < 3; ++i) t.on_accept(0.5);
  // kEpochs epochs ahead: epoch kEpochs shares epoch 0's slot and recycles
  // it in place, so neither window sees epoch 0's three accepts.
  for (int i = 0; i < 7; ++i) t.on_accept(kSpan + 0.5);
  EXPECT_EQ(t.window(kSpan, kSpan + 0.6).accepted, 7u);
  EXPECT_EQ(t.window(1.0, 0.6).accepted, 0u);
  // An ingest kEpochs or more epochs behind the newest one is dropped,
  // not misfiled into the slot it shares.
  t.on_accept(0.5);
  EXPECT_EQ(t.window(1.0, kSpan + 0.6).accepted, 7u);
  EXPECT_EQ(t.window(1.0, 0.6).accepted, 0u);
}

TEST(ServiceTelemetry, RetentionJudgesEveryIngestAgainstTheNewestOfAnyKind) {
  // The ring has one newest epoch: a completion whose offered time lies
  // kEpochs epochs behind a later arrival or shed is dropped whole
  // (latencies and exemplar), though no completion came later; one epoch
  // less is kept.
  constexpr double kSpan = static_cast<double>(ServiceTelemetry::kEpochs);
  ServiceTelemetry t;
  t.on_accept(kSpan + 0.5);  // newest: epoch kEpochs
  t.on_complete(waited(1, 0.5, 0.01));
  EXPECT_EQ(t.window(1.0, 0.6).completed(), 0u);
  EXPECT_TRUE(t.exemplars().empty());
  t.on_complete(waited(2, 1.5, 0.01));
  EXPECT_EQ(t.window(1.0, 1.6).completed(), 1u);
  EXPECT_EQ(ids(t.exemplars()), (std::vector<std::uint64_t>{2}));
  t.on_shed(kSpan + 2.5);  // newest: epoch kEpochs + 2
  t.on_complete(waited(3, 2.5, 0.01));
  EXPECT_EQ(t.window(1.0, kSpan + 2.6).shed, 1u);
  EXPECT_EQ(t.window(1.0, kSpan + 2.6).completed(), 0u);
  EXPECT_EQ(ids(t.exemplars()), (std::vector<std::uint64_t>{2}));
}

TEST(ServiceTelemetry, NegativeAndZeroTimesClampToEpochZero) {
  ServiceTelemetry t;
  t.on_accept(-5.0);
  t.on_accept(0.0);
  t.on_complete(waited(1, -1.0, 0.01));
  EXPECT_EQ(t.window(1.0, 0.5).accepted, 2u);
  EXPECT_EQ(t.window(1.0, 0.5).completed(), 1u);
}

TEST(ServiceTelemetry, WindowQuantileMatchesCumulativeHistogramOnSameData) {
  // Same observations into the ring (one wide epoch) and a plain Histogram
  // on the same ladder: the merged row must give the identical quantile,
  // because both go through Histogram::quantile_of.
  ServiceTelemetry t(/*epoch_s=*/100.0);
  Histogram h(latency_bounds());
  for (int i = 1; i <= 1000; ++i) {
    const double v = static_cast<double>(i) * 0.01;
    t.on_complete(waited(static_cast<std::uint64_t>(i), 0.5, v));
    h.observe(v);
  }
  const TelemetryWindow w = t.window(100.0, 0.5);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(Histogram::quantile_of(w.queue_wait, latency_bounds(), q),
                     h.quantile(q))
        << q;
  }
}

TEST(ServiceTelemetry, WindowIsCoherentUnderIngestStorm) {
  // A reader merging the window mid-storm must always see an internally
  // consistent row: bucket counts sum to count, and min/max bracket a
  // non-empty row. (Same contract Histogram::view() pins, extended to the
  // epoch-merged read path.)
  ServiceTelemetry t;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    double at = 0.0;
    std::uint64_t state = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double v = 0.001 * static_cast<double>(state >> 60);  // 0..15 ms
      t.on_complete(waited(state, at, v));
      at += 0.001;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const TelemetryWindow w = t.window(8.0, 8.0);
    for (const Histogram::View* row : {&w.queue_wait, &w.service_time}) {
      std::uint64_t sum = 0;
      for (const std::uint64_t b : row->counts) sum += b;
      ASSERT_EQ(sum, row->count);
      ASSERT_EQ(row->count, w.completed());
    }
    if (w.completed() > 0) {
      ASSERT_LE(w.queue_wait.min, w.queue_wait.max);
      ASSERT_GE(w.queue_wait.min, 0.0);
      ASSERT_LE(w.queue_wait.max, 0.015);
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ServiceTelemetry, SamplesNeverSeeACompletionBeforeItsAccept) {
  // One thread ingests accept/complete pairs while another samples: every
  // window of every sample must hold the pair whole or not at all, so its
  // completions never exceed its accepts and equal its latency rows'
  // counts.
  ServiceTelemetry t;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pairs{0};
  std::thread writer([&] {
    for (std::uint64_t id = 0; !stop.load(std::memory_order_relaxed); ++id) {
      const double at = 0.0001 * static_cast<double>(id % 500000);
      t.on_accept(at);
      t.on_complete(waited(id, at, 0.001));
      pairs.store(id + 1, std::memory_order_relaxed);
    }
  });
  const auto windows_of = [](const std::string& sample) {
    // (accepted, completed) of each window, in order.
    std::vector<std::pair<double, double>> out;
    for (std::size_t at = sample.find("\"window_s\"");
         at != std::string::npos; at = sample.find("\"window_s\"", at + 1)) {
      const std::string rest = sample.substr(at);
      out.emplace_back(json_find_number(rest, "accepted", -1.0),
                       json_find_number(rest, "completed", -1.0));
    }
    return out;
  };
  for (int i = 0; i < 2000 || pairs.load() < 1000; ++i) {
    const double now_s = 0.0001 * static_cast<double>(pairs.load() % 500000);
    for (const double window_s : {1.0, 10.0, 60.0}) {
      const TelemetryWindow w = t.window(window_s, now_s + 0.5);
      ASSERT_LE(w.completed(), w.accepted) << window_s;
      ASSERT_EQ(w.queue_wait.count, w.completed());
      ASSERT_EQ(w.service_time.count, w.completed());
    }
    const auto windows = windows_of(t.sample_json(now_s + 0.5));
    ASSERT_EQ(windows.size(), 3u);
    for (const auto& [accepted, completed] : windows) {
      ASSERT_LE(completed, accepted) << i;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ServiceTelemetry, KeepsTheKSlowestPerEpoch) {
  static_assert(ServiceTelemetry::kExemplarsPerEpoch == 4);
  ServiceTelemetry t;
  t.on_complete(make_exemplar(1, 0.1, 0.010));
  t.on_complete(make_exemplar(2, 0.2, 0.030));
  t.on_complete(make_exemplar(3, 0.3, 0.020));
  t.on_complete(make_exemplar(4, 0.4, 0.040));
  t.on_complete(make_exemplar(5, 0.5, 0.025));  // evicts id 1 (fastest)
  t.on_complete(make_exemplar(6, 0.6, 0.005));  // too fast, not kept
  EXPECT_EQ(ids(t.exemplars()), (std::vector<std::uint64_t>{4, 2, 5, 3}));
  // Every completion still counts in the latency rows.
  EXPECT_EQ(t.window(1.0, 0.7).completed(), 6u);
}

TEST(ServiceTelemetry, ExemplarTiesKeepIncumbentAndOrderById) {
  ServiceTelemetry t;
  for (std::uint64_t id = 7; id <= 10; ++id) {
    t.on_complete(make_exemplar(id, 0.1, 0.010));
  }
  // Equal latency in a full epoch: the incumbents stay.
  t.on_complete(make_exemplar(11, 0.2, 0.010));
  EXPECT_EQ(ids(t.exemplars()), (std::vector<std::uint64_t>{7, 8, 9, 10}));
  // Across epochs, equal latencies order by ascending id.
  t.on_complete(make_exemplar(3, 1.5, 0.010));
  EXPECT_EQ(ids(t.exemplars()),
            (std::vector<std::uint64_t>{3, 7, 8, 9, 10}));
}

TEST(ServiceTelemetry, EpochRotationBoundsExemplarMemory) {
  constexpr int kEpochs = static_cast<int>(ServiceTelemetry::kEpochs);
  ServiceTelemetry t;
  for (int epoch = 0; epoch < kEpochs + 10; ++epoch) {
    for (int i = 0; i < 10; ++i) {
      t.on_complete(make_exemplar(static_cast<std::uint64_t>(epoch * 10 + i),
                                  static_cast<double>(epoch) + 0.5,
                                  0.001 * (i + 1)));
    }
  }
  // At most kEpochs * K exemplars survive, all from the last kEpochs epochs.
  const std::vector<Exemplar> kept = t.exemplars();
  EXPECT_EQ(kept.size(),
            ServiceTelemetry::kEpochs * ServiceTelemetry::kExemplarsPerEpoch);
  for (const Exemplar& e : kept) EXPECT_GE(e.t_s, 10.0);
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
  e.stages.add(0.015625);
  e.stages.add(0.015625);

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

TEST(ExemplarJson, ParseRejectsFieldsOutsideTheirRange) {
  // Replay copies each field into its request slot, so a value its field
  // cannot hold, or one with anything after its digits, must reject the
  // line, not wrap, truncate or stop at the junk.
  Exemplar e;
  e.id = 7;
  e.kind = 1;
  e.trials = 2;
  e.antennas = 3;
  e.seed = 5;
  e.snr_db = 14.0;
  e.medium_loss_db = -3.25;
  e.response_hash = 9;
  const std::string line = exemplar_json(e);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = line;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  Exemplar out;
  for (const auto& [from, to] : std::vector<std::pair<std::string,
                                                      std::string>>{
           {"\"kind\":1", "\"kind\":-1"},
           {"\"kind\":1", "\"kind\":4294967296"},
           {"\"kind\":1", "\"kind\":1x"},
           {"\"kind\":1", "\"kind\":"},
           {"\"trials\":2", "\"trials\":4294967297"},
           {"\"trials\":2", "\"trials\":2.5"},
           {"\"trials\":2", "\"trials\":2e0"},
           {"\"antennas\":3", "\"antennas\":-3"},
           {"\"id\":7", "\"id\":-1"},
           {"\"id\":7", "\"id\":0.5"},
           {"\"id\":7", "\"id\":18446744073709551616"},
           {"\"seed\":\"5\"", "\"seed\":\"5x\""},
           {"\"seed\":\"5\"", "\"seed\":\"-5\""},
           {"\"seed\":\"5\"", "\"seed\":\" 5\""},
           {"\"seed\":\"5\"", "\"seed\":\"18446744073709551616\""},
           {"\"response_hash\":\"9\"", "\"response_hash\":\"\""},
           {"\"response_hash\":\"9\"", "\"response_hash\":\"0x9\""},
           // The request's SNR and loss: present, whole and finite, or a
           // replay would run a different request than the one recorded.
           {"\"snr_db\":14,", ""},
           {"\"snr_db\":14", "\"snr_db\":14x"},
           {"\"snr_db\":14", "\"snr_db\":"},
           {"\"snr_db\":14", "\"snr_db\":inf"},
           {"\"snr_db\":14", "\"snr_db\":nan"},
           {"\"medium_loss_db\":-3.25,", ""},
           {"\"medium_loss_db\":-3.25", "\"medium_loss_db\":-3.25.5"},
           {"\"medium_loss_db\":-3.25", "\"medium_loss_db\":-1e999"},
       }) {
    EXPECT_FALSE(parse_exemplar_line(with(from, to), out)) << to;
  }
  // Each field's own limits still parse; the request's narrower kind and
  // antenna ranges are replay-exemplar's to check.
  ASSERT_TRUE(parse_exemplar_line(with("\"trials\":2", "\"trials\":4294967295"),
                                  out));
  EXPECT_EQ(out.trials, 4294967295u);
  ASSERT_TRUE(parse_exemplar_line(
      with("\"seed\":\"5\"", "\"seed\":\"18446744073709551615\""), out));
  EXPECT_EQ(out.seed, 18446744073709551615ull);
  ASSERT_TRUE(parse_exemplar_line(with("\"kind\":1", "\"kind\":3"), out));
  EXPECT_EQ(out.kind, 3u);
  ASSERT_TRUE(
      parse_exemplar_line(with("\"antennas\":3", "\"antennas\":65538"), out));
  EXPECT_EQ(out.antennas, 65538u);
  // SNR and loss take any finite JSON number.
  ASSERT_TRUE(
      parse_exemplar_line(with("\"snr_db\":14", "\"snr_db\":1.4e1"), out));
  EXPECT_EQ(out.snr_db, 14.0);
  EXPECT_EQ(out.medium_loss_db, -3.25);
  // Integers read exactly, past 2^53 too, and JSON spacing is allowed.
  ASSERT_TRUE(parse_exemplar_line(
      with("\"id\":7", "\"id\": 9007199254740993 "), out));
  EXPECT_EQ(out.id, 9007199254740993ull);
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
  EXPECT_EQ(t.window(10.0, 29.5).completed(), 10u);
  EXPECT_EQ(t.window(60.0, 29.5).completed(), 30u);
  EXPECT_EQ(t.window(1.0, 29.5).shed, 1u);
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
  // Each verdict also latches: an episode starts at the first anomalous
  // completion and ends at the next calm one.
  ServiceTelemetry t;
  EXPECT_FALSE(t.on_complete(waited(1, 0.1, 0.001)).any());

  // One shed short of the storm rate over the trailing second: calm.
  const int storm = static_cast<int>(ServiceTelemetry::kShedStormRps);
  for (int i = 0; i < storm - 1; ++i) t.on_shed(0.3);
  EXPECT_FALSE(t.on_complete(waited(2, 0.35, 0.001)).any());
  t.on_shed(0.3);
  const TelemetryAnomaly shed = t.on_complete(waited(3, 0.4, 0.001));
  EXPECT_TRUE(shed.shed_storm);
  EXPECT_FALSE(shed.queue_saturated);
  EXPECT_EQ(t.anomaly_episodes(), 1u);

  // Still anomalous: the episode goes on, nothing new starts.
  EXPECT_FALSE(t.on_complete(waited(4, 0.45, 0.001)).any());
  EXPECT_EQ(t.anomaly_episodes(), 1u);

  // Two epochs later the storm has left the 1 s window: a calm completion
  // ends the episode, and a saturated queue then starts the next one.
  EXPECT_FALSE(t.on_complete(waited(5, 2.5, 0.001)).any());
  const TelemetryAnomaly queue = t.on_complete(waited(6, 2.6, 0.9));
  EXPECT_FALSE(queue.shed_storm);
  EXPECT_TRUE(queue.queue_saturated);
  EXPECT_EQ(t.anomaly_episodes(), 2u);
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, DumpIsValidChromeTraceWithPairedStages) {
  FlightRecorder rec(/*rings=*/2);
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
  constexpr std::uint64_t kEvents = FlightRecorder::kSlotsPerRing + 904;
  FlightRecorder rec(1);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    rec.record(0, FlightEvent::kEnqueue, 0.001 * static_cast<double>(i), i);
  }
  EXPECT_EQ(rec.total_events(), kEvents);
  const std::string trace = rec.dump_json();
  // Only the newest kSlotsPerRing survive: id 904 is retained, id 903 is
  // overwritten.
  EXPECT_NE(trace.find("\"id\":" + std::to_string(kEvents - 1) + ","),
            std::string::npos);
  EXPECT_NE(trace.find("\"id\":904,"), std::string::npos);
  EXPECT_EQ(trace.find("\"id\":903,"), std::string::npos);
}

TEST(FlightRecorder, FdDumpMatchesStringDump) {
  FlightRecorder rec(2);
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
  FlightRecorder rec(2);
  rec.record(99, FlightEvent::kEnqueue, 0.001, 7);  // clamps to last ring
  EXPECT_EQ(rec.total_events(), 1u);
  EXPECT_NE(rec.dump_json().find("\"tid\":1"), std::string::npos);
}

TEST(FlightRecorderDeathTest, CrashHandlerDumpsBeforeTheProcessDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlightRecorder rec(1);
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
