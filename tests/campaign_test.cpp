// Tests for ivnet/sim/campaign: cell canonicalization and content hashing,
// journal crash-consistency (torn-tail skipping), kill-and-resume byte
// determinism, the process-wide memo cache (duplicate and cross-campaign
// sharing), thread-count invariance, the obs:: counter surface, and the
// journal durability contract (failed appends throw; raw \r bytes
// round-trip through the binary-mode reader). The distributed fleet lives
// in campaign_shard_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/trace.hpp"
#include "ivnet/sim/campaign.hpp"

namespace ivnet {
namespace {

std::atomic<int> g_synth_calls{0};

// Deterministic synthetic evaluator: result depends only on the spec.
std::string synth_eval(const CellSpec& spec) {
  g_synth_calls.fetch_add(1);
  const double a = spec.param_num("a", 0.0);
  const double b = spec.param_num("b", 0.0);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"sum\":%.10g,\"prod\":%.10g}", a + b,
                a * b);
  return buf;
}

CellSpec synth_cell(double a, double b) {
  CellSpec cell("synth");
  cell.set("a", a).set("b", b);
  return cell;
}

std::string temp_journal(const std::string& name) {
  return testing::TempDir() + "campaign_" + name + ".jsonl";
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_cell_evaluator("synth", synth_eval);
    CellCache::instance().clear();
    g_synth_calls.store(0);
  }
  void TearDown() override {
    CellCache::instance().clear();
    set_parallel_threads(0);
    obs::install_null();
  }
};

TEST_F(CampaignTest, CanonicalJsonIsSortedAndFixedFormat) {
  CellSpec cell("gain");
  // Insertion order must not matter: params are map-sorted.
  cell.set("trials", std::size_t{150});
  cell.set("antennas", std::size_t{8});
  cell.set("depth_m", 0.05);
  EXPECT_EQ(cell.canonical_json(),
            "{\"kind\":\"gain\",\"params\":{\"antennas\":\"8\","
            "\"depth_m\":\"0.05\",\"trials\":\"150\"}}");

  CellSpec reordered("gain");
  reordered.set("depth_m", 0.05);
  reordered.set("antennas", std::size_t{8});
  reordered.set("trials", std::size_t{150});
  EXPECT_EQ(cell.content_hash(), reordered.content_hash());
}

TEST_F(CampaignTest, ContentHashSeparatesKindAndParams) {
  const CellSpec a = synth_cell(1.0, 2.0);
  const CellSpec b = synth_cell(1.0, 3.0);
  CellSpec c = synth_cell(1.0, 2.0);
  c.kind = "other";
  EXPECT_NE(a.content_hash(), b.content_hash());
  EXPECT_NE(a.content_hash(), c.content_hash());
  EXPECT_EQ(a.content_hash(), synth_cell(1.0, 2.0).content_hash());
}

TEST_F(CampaignTest, UnknownKindThrowsBeforeAnyWork) {
  CampaignSpec spec;
  spec.name = "bad";
  spec.cells.push_back(synth_cell(1.0, 2.0));
  spec.cells.emplace_back("no_such_kind");
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);
  EXPECT_EQ(g_synth_calls.load(), 0) << "must throw before evaluating cells";
}

TEST_F(CampaignTest, ComputesCellsAndReportsSources) {
  CampaignSpec spec;
  spec.name = "basic";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(report.cells_total, 2u);
  EXPECT_EQ(report.cells_computed, 2u);
  EXPECT_EQ(report.cells_resumed, 0u);
  EXPECT_EQ(report.cache_hits, 0u);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].result_json, "{\"sum\":3,\"prod\":2}");
  EXPECT_EQ(report.outcomes[1].result_json, "{\"sum\":7,\"prod\":12}");
  EXPECT_EQ(report.outcomes[0].source, CellSource::kComputed);
  // Final JSON splices result text verbatim in spec order.
  const std::string json = report.results_json();
  EXPECT_NE(json.find("\"campaign\":\"basic\""), std::string::npos);
  EXPECT_LT(json.find("{\"sum\":3,\"prod\":2}"),
            json.find("{\"sum\":7,\"prod\":12}"));
}

TEST_F(CampaignTest, DuplicateCellsEvaluateOnce) {
  CampaignSpec spec;
  spec.name = "dup";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(5.0, 6.0),
                synth_cell(1.0, 2.0)};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(g_synth_calls.load(), 2);
  EXPECT_EQ(report.cells_computed, 2u);
  EXPECT_EQ(report.cache_hits, 1u);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.outcomes[0].result_json, report.outcomes[2].result_json);
  EXPECT_EQ(report.outcomes[2].source, CellSource::kCache);
}

TEST_F(CampaignTest, MemoCacheSharesCellsAcrossCampaigns) {
  CampaignSpec first;
  first.name = "first";
  first.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  run_campaign(first);
  EXPECT_EQ(g_synth_calls.load(), 2);

  CampaignSpec second;
  second.name = "second";
  second.cells = {synth_cell(3.0, 4.0), synth_cell(9.0, 9.0)};
  const CampaignReport report = run_campaign(second);
  EXPECT_EQ(g_synth_calls.load(), 3) << "shared cell must not recompute";
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cells_computed, 1u);
  EXPECT_EQ(report.outcomes[0].source, CellSource::kCache);
}

TEST_F(CampaignTest, JournalHoldsOneFsyncedRecordPerCell) {
  const std::string path = temp_journal("write");
  std::remove(path.c_str());
  CampaignSpec spec;
  spec.name = "journaled";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  const CampaignReport report = run_campaign(spec, {path, /*fresh=*/true});
  const auto entries = read_campaign_journal(path);
  ASSERT_EQ(entries.size(), 2u);
  // Journal order is evaluation order (not necessarily spec order); match
  // by hash.
  for (const auto& outcome : report.outcomes) {
    bool found = false;
    for (const auto& entry : entries) {
      if (entry.hash == outcome.hash) {
        EXPECT_EQ(entry.result_json, outcome.result_json);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "cell missing from journal";
  }
  std::remove(path.c_str());
}

TEST_F(CampaignTest, JournalSkipsTornAndCorruptLines) {
  const std::string path = temp_journal("torn");
  {
    std::ofstream out(path, std::ios::binary);
    // Good record.
    out << "{\"hash\":\"00000000000000ab\",\"cell\":{\"kind\":\"synth\","
           "\"params\":{}},\"result\":{\"sum\":1}}\n";
    // Corrupt: unbalanced braces (but newline-terminated).
    out << "{\"hash\":\"00000000000000cd\",\"cell\":{\"kind\":\"synth\","
           "\"params\":{}},\"result\":{\"sum\":2}\n";
    // Torn tail: no trailing newline (SIGKILL mid-write).
    out << "{\"hash\":\"00000000000000ef\",\"cell\":{\"kind\":\"syn";
  }
  const auto entries = read_campaign_journal(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].hash, 0xabu);
  EXPECT_EQ(entries[0].result_json, "{\"sum\":1}");
  std::remove(path.c_str());
}

TEST_F(CampaignTest, MissingJournalReadsEmpty) {
  EXPECT_TRUE(read_campaign_journal(temp_journal("nonexistent")).empty());
}

TEST_F(CampaignTest, ResumeReplaysJournalWithoutRecomputing) {
  const std::string path = temp_journal("resume");
  CampaignSpec spec;
  spec.name = "resumable";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(5.0, 6.0)};
  const std::string full = run_campaign(spec, {path, true}).results_json();
  EXPECT_EQ(g_synth_calls.load(), 3);

  // A resumed run in a fresh process: empty memo cache, journal on disk.
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(g_synth_calls.load(), 3) << "resume must not recompute";
  EXPECT_EQ(resumed.cells_resumed, 3u);
  EXPECT_EQ(resumed.cells_computed, 0u);
  EXPECT_EQ(resumed.outcomes[0].source, CellSource::kJournal);
  EXPECT_EQ(resumed.results_json(), full) << "resume must be byte-identical";
  std::remove(path.c_str());
}

TEST_F(CampaignTest, KilledRunResumesByteIdentical) {
  // Simulate a SIGKILL mid-campaign: keep the first journal record intact,
  // tear the second mid-line, then resume at a different thread count.
  const std::string path = temp_journal("killed");
  CampaignSpec spec;
  spec.name = "killable";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(5.0, 6.0)};
  set_parallel_threads(1);
  const std::string uninterrupted = run_campaign(spec, {path, true}).results_json();

  std::string journal;
  {
    std::ifstream in(path, std::ios::binary);
    journal.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const std::size_t first_nl = journal.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << journal.substr(0, first_nl + 1);
    out << journal.substr(first_nl + 1, 17);  // torn second record
  }

  CellCache::instance().clear();
  g_synth_calls.store(0);
  set_parallel_threads(8);
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_computed, 2u);
  EXPECT_EQ(g_synth_calls.load(), 2);
  EXPECT_EQ(resumed.results_json(), uninterrupted)
      << "kill-and-resume must reproduce the uninterrupted bytes";
  // The repaired journal is again a complete checkpoint.
  EXPECT_EQ(read_campaign_journal(path).size(), 3u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, ResultsInvariantAcrossThreadCounts) {
  CampaignSpec spec;
  spec.name = "threads";
  for (double a = 0.0; a < 6.0; a += 1.0) {
    spec.cells.push_back(synth_cell(a, 2.0 * a + 1.0));
  }
  set_parallel_threads(1);
  const std::string baseline = run_campaign(spec).results_json();
  for (std::size_t threads : {2u, 8u}) {
    CellCache::instance().clear();
    set_parallel_threads(threads);
    EXPECT_EQ(run_campaign(spec).results_json(), baseline)
        << "thread count " << threads;
  }
}

TEST_F(CampaignTest, FreshOptionTruncatesJournal) {
  const std::string path = temp_journal("fresh");
  CampaignSpec spec;
  spec.name = "fresh";
  spec.cells = {synth_cell(1.0, 2.0)};
  run_campaign(spec, {path, true});
  CellCache::instance().clear();
  g_synth_calls.store(0);
  const CampaignReport report = run_campaign(spec, {path, /*fresh=*/true});
  EXPECT_EQ(report.cells_resumed, 0u);
  EXPECT_EQ(report.cells_computed, 1u);
  EXPECT_EQ(g_synth_calls.load(), 1);
  EXPECT_EQ(read_campaign_journal(path).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, ObsCountersSurfaceCacheAndResumeTraffic) {
  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  const std::string path = temp_journal("metrics");
  CampaignSpec spec;
  spec.name = "metered";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(1.0, 2.0)};  // one duplicate -> one cache hit
  run_campaign(spec, {path, true});
  CellCache::instance().clear();
  run_campaign(spec, {path, false});  // all three resumed
  obs::install_null();

  EXPECT_EQ(registry.counter("campaign.cells.total").value(), 6u);
  EXPECT_EQ(registry.counter("campaign.cells.computed").value(), 2u);
  EXPECT_EQ(registry.counter("campaign.cells.resumed").value(), 3u);
  EXPECT_EQ(registry.counter("campaign.cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("campaign.cache.misses").value(), 2u);
  const std::string snapshot = registry.snapshot_json();
  EXPECT_NE(snapshot.find("campaign.cells.resumed"), std::string::npos);
  EXPECT_NE(snapshot.find("campaign.cell.seconds"), std::string::npos)
      << "per-cell latency histogram missing from snapshot";
  std::remove(path.c_str());
}

TEST_F(CampaignTest, Fig9AndFig13ShareGainAnchorCells) {
  const CampaignSpec fig9 = fig9_campaign(10);
  const CampaignSpec fig13 = fig13_campaign(10, 2);
  ASSERT_EQ(fig9.cells.size(), 10u);
  // Fig. 13 carries the Fig. 9 water-tank anchors at N=1 and N=8: the spec
  // objects hash identically, so the memo cache evaluates them once.
  std::size_t shared = 0;
  for (const auto& a : fig9.cells) {
    for (const auto& b : fig13.cells) {
      if (a.content_hash() == b.content_hash()) ++shared;
    }
  }
  EXPECT_EQ(shared, 2u);
  // Every built-in campaign names only registered evaluator kinds:
  // run_campaign resolves every cell's evaluator before it computes any and
  // throws on a kind without one. One cell of each kind runs here.
  register_builtin_cell_evaluators();
  CampaignSpec one_per_kind;
  std::set<std::string> kinds;
  for (const CampaignSpec& builtin : {fig9, fig13, x13_campaign(2)}) {
    for (const CellSpec& cell : builtin.cells) {
      if (kinds.insert(cell.kind).second) one_per_kind.cells.push_back(cell);
    }
  }
  EXPECT_EQ(run_campaign(one_per_kind).outcomes.size(), kinds.size());
}

TEST_F(CampaignTest, BuiltinGainCellIsDeterministicAcrossThreads) {
  register_builtin_cell_evaluators();
  CampaignSpec spec;
  spec.name = "gain_smoke";
  spec.cells.push_back(fig9_campaign(/*gain_trials=*/4).cells[0]);
  set_parallel_threads(1);
  const std::string one = run_campaign(spec).results_json();
  CellCache::instance().clear();
  set_parallel_threads(8);
  const std::string eight = run_campaign(spec).results_json();
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"p50\":"), std::string::npos);
}

// --- Sweep families ---------------------------------------------------------

CellSpec sweep_cell(const char* kind, std::size_t seed, std::size_t trials,
                    std::size_t retries) {
  CellSpec cell(kind);
  cell.set("seed", seed).set("trials", trials).set("retries", retries);
  return cell;
}

/// Two seed families per sweep kind, one of them mixing `trials` and
/// `retries`, a lone-seed waterfall cell, and a non-sweep cell between
/// them.
CampaignSpec family_spec() {
  CampaignSpec spec;
  spec.name = "families";
  for (const double snr : {30.0, 12.0, 4.0}) {
    spec.cells.push_back(sweep_cell("waterfall", 13, 5, 2).set("snr_db", snr));
  }
  spec.cells.push_back(sweep_cell("waterfall", 14, 4, 1).set("snr_db", 24.0));
  spec.cells.push_back(synth_cell(1.0, 2.0));
  spec.cells.push_back(sweep_cell("waterfall", 14, 6, 2).set("snr_db", 8.0));
  spec.cells.push_back(sweep_cell("waterfall", 99, 3, 2).set("snr_db", 10.0));
  const struct {
    const char* medium;
    double loss_db;
    double snr_db;
    std::size_t antennas;
  } matrix[] = {{"water", 2.0, 30.0, 1},
                {"muscle", 6.0, 10.0, 3},
                {"gastric", 9.0, 0.0, 10}};
  for (const std::size_t seed : {17u, 18u}) {
    for (const auto& m : matrix) {
      spec.cells.push_back(sweep_cell("matrix", seed, 4, 2)
                               .set("medium", m.medium)
                               .set("loss_db", m.loss_db)
                               .set("snr_db", m.snr_db)
                               .set("antennas", m.antennas));
    }
  }
  for (const std::size_t seed : {29u, 30u}) {
    for (const double depth : {0.02, 0.10}) {
      spec.cells.push_back(sweep_cell("depth", seed, 4, 1)
                               .set("depth_m", depth)
                               .set("antennas", std::size_t{10}));
    }
  }
  for (const std::size_t seed : {23u, 24u}) {
    for (const std::size_t retries : {0u, 2u}) {
      spec.cells.push_back(sweep_cell("burst_retry", seed, 6 + retries, retries)
                               .set("snr_db", 30.0)
                               .set("burst_rate_hz", 150.0)
                               .set("burst_duration_s", 5e-4)
                               .set("burst_depth_db", 40.0));
    }
  }
  return spec;
}

TEST_F(CampaignTest, SweepFamiliesMatchLoneCellsAtAnyThreadCount) {
  // A family computes its cells together over one noise tape; each result
  // must still be the bytes the cell's own evaluator gives alone.
  register_builtin_cell_evaluators();
  const CampaignSpec spec = family_spec();
  std::vector<std::string> alone;
  for (const CellSpec& cell : spec.cells) {
    alone.push_back(resolve_cell(cell, "").result_json);
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    CellCache::instance().clear();
    set_parallel_threads(threads);
    const CampaignReport report = run_campaign(spec);
    EXPECT_EQ(report.cells_computed, spec.cells.size());
    ASSERT_EQ(report.outcomes.size(), spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
      EXPECT_EQ(report.outcomes[i].result_json, alone[i])
          << "cell " << i << " (" << spec.cells[i].kind << ") at " << threads
          << " threads";
    }
  }
}

TEST_F(CampaignTest, HalfJournaledFamilyResumesByteIdentical) {
  register_builtin_cell_evaluators();
  const std::string path = temp_journal("half_family");
  const CampaignSpec spec = family_spec();
  set_parallel_threads(2);
  const std::string reference = run_campaign(spec, {path, true}).results_json();

  // Keep the journal records of every other cell of the first matrix
  // family (and everything outside it), as if the run had died there.
  std::set<std::uint64_t> dropped;
  bool drop = false;
  for (const CellSpec& cell : spec.cells) {
    if (cell.kind == "matrix" && cell.param("seed", "") == "17") {
      if (drop) dropped.insert(cell.content_hash());
      drop = !drop;
    }
  }
  ASSERT_FALSE(dropped.empty());
  std::vector<std::string> kept;
  {
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line);) {
      const std::uint64_t hash =
          std::strtoull(line.substr(9, 16).c_str(), nullptr, 16);
      if (dropped.count(hash) == 0) kept.push_back(line);
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : kept) out << line << '\n';
  }

  CellCache::instance().clear();
  set_parallel_threads(4);
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_computed, dropped.size());
  EXPECT_EQ(resumed.cells_resumed, spec.cells.size() - dropped.size());
  EXPECT_EQ(resumed.results_json(), reference);
  EXPECT_EQ(read_campaign_journal(path).size(), spec.cells.size());
  std::remove(path.c_str());
}

TEST_F(CampaignTest, BurstCellAcrossTrialWavesEqualsTheSerialFold) {
  // 1,030 trials span two of the sweep kernel's trial waves; the cell must
  // still equal the serial per-trial fold, double backoff sum included.
  register_builtin_cell_evaluators();
  const CellSpec cell = sweep_cell("burst_retry", 23, 1030, 1)
                            .set("snr_db", 30.0)
                            .set("burst_rate_hz", 150.0)
                            .set("burst_duration_s", 5e-4)
                            .set("burst_depth_db", 40.0);
  ImpairedLinkConfig config;
  config.snr_db = 30.0;
  config.impair.bursts = {
      .rate_hz = 150.0, .mean_duration_s = 5e-4, .depth_db = 40.0};
  config.recovery = RecoveryPolicy::retries(1);
  std::size_t ok = 0;
  std::size_t timeouts = 0;
  double backoff = 0.0;
  for (std::size_t t = 0; t < 1030; ++t) {
    Rng rng = Rng::stream(23, t);
    const auto report = run_impaired_link_session(config, rng);
    ok += report.success;
    timeouts += report.recovery.timeouts;
    backoff += report.recovery.backoff_total_s;
  }
  JsonWriter w;
  w.begin_object();
  w.field("success", static_cast<double>(ok) / 1030.0);
  w.field("timeouts", static_cast<double>(timeouts) / 1030.0);
  w.field("backoff_ms", 1e3 * backoff / 1030.0);
  w.field("trials", std::size_t{1030});
  w.end_object();
  set_parallel_threads(4);
  EXPECT_EQ(resolve_cell(cell, "").result_json, w.str());
}

/// The JSON object value of `key` in `doc` (the snapshot emitter never puts
/// braces inside strings), or "" when absent.
std::string extract_object(const std::string& doc, const std::string& key) {
  const std::size_t at = doc.find("\"" + key + "\":{");
  if (at == std::string::npos) return "";
  const std::size_t open = doc.find('{', at);
  int depth = 0;
  for (std::size_t i = open; i < doc.size(); ++i) {
    if (doc[i] == '{') ++depth;
    if (doc[i] == '}' && --depth == 0) return doc.substr(open, i - open + 1);
  }
  return "";
}

TEST_F(CampaignTest, X13SimTraceAndCountersByteStableAcrossThreads) {
  // Every (cell, trial) of a campaign has its own sim-trace track, based on
  // the trials of the cells before it, so the exported trace does not
  // depend on which thread ran what.
  const CampaignSpec spec = x13_campaign(4);
  auto run = [&](std::size_t threads) {
    CellCache::instance().clear();
    set_parallel_threads(threads);
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    obs::install({&registry, &tracer});
    const std::string results = run_campaign(spec).results_json();
    obs::install_null();
    return results + "\n" +
           extract_object(registry.snapshot_json(), "counters") + "\n" +
           tracer.to_json();
  };
  const std::string reference = run(1);
  EXPECT_NE(reference.find("\"name\":\"charge\""), std::string::npos);
  EXPECT_NE(reference.find("\"waterfall.sweeps\":7"), std::string::npos);
  for (const std::size_t threads : {2u, 4u, 4u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

// --- Journal durability and byte fidelity ----------------------------------

TEST_F(CampaignTest, JournalAppendToUnwritableFileThrows) {
  // A cell must never count as journaled when the line did not land: a
  // short fwrite (here: the stream is open read-only) has to surface as an
  // exception, not a silent "durable" success.
  const std::string path = temp_journal("readonly");
  { std::ofstream out(path, std::ios::binary); }
  std::FILE* readonly = std::fopen(path.c_str(), "rb");
  ASSERT_NE(readonly, nullptr);
  const CellSpec cell = synth_cell(1.0, 2.0);
  EXPECT_THROW(detail::append_journal_record(readonly, cell,
                                             cell.content_hash(), "{}"),
               std::runtime_error);
  std::fclose(readonly);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, RunSurfacesJournalFlushFailures) {
  // /dev/full accepts the fopen and fails at flush time (ENOSPC) — the
  // run must throw instead of reporting cells whose journal lines never
  // hit the disk. fresh=true skips the resume read (/dev/full reads as an
  // endless stream of zeros).
  std::FILE* probe = std::fopen("/dev/full", "we");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full unavailable";
  std::fclose(probe);
  set_parallel_threads(1);
  CampaignSpec spec;
  spec.name = "enospc";
  spec.cells = {synth_cell(41.0, 1.0)};
  EXPECT_THROW(run_campaign(spec, {"/dev/full", /*fresh=*/true}),
               std::runtime_error);
}

TEST_F(CampaignTest, JournalRoundTripsCarriageReturnBytes) {
  // The reader opens in binary mode; a text-mode reader could eat \r
  // bytes and desynchronize the resume offsets from the on-disk tail.
  register_cell_evaluator("crlf", [](const CellSpec&) {
    return std::string("{\"s\":\"a\rb\",\"n\":1}");
  });
  CellSpec cell("crlf");
  cell.set("seed", std::size_t{1});
  CampaignSpec spec;
  spec.name = "crlf";
  spec.cells = {cell};
  const std::string path = temp_journal("crlf");
  const std::string reference = run_campaign(spec, {path, true}).results_json();

  const auto entries = read_campaign_journal(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(entries[0].result_json.find('\r'), std::string::npos)
      << "raw \\r bytes must round-trip through the journal";
  EXPECT_EQ(entries[0].result_json, "{\"s\":\"a\rb\",\"n\":1}");

  // A torn tail right after the \r-bearing record must truncate at the
  // correct byte offset: resume replays the record, recomputes nothing,
  // and the output stays byte-identical.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"hash\":\"fe";
  }
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_computed, 0u);
  EXPECT_EQ(resumed.results_json(), reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivnet
