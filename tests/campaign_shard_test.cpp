// Tests for the distributed campaign machinery (sim/campaign): shard
// ownership and merge byte-determinism across shard x thread counts, the
// claims-file work-stealing protocol (exactly-once under concurrent
// workers, solo worker drains every foreign backlog), whole-family claims
// of the built-in sweep kinds (a partly won family computes the rest),
// merge accounting for missing cells, shard-journal torn-tail recovery,
// journal shard metadata, and the obs:: counter surface of a fleet run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/campaign.hpp"

namespace ivnet {
namespace {

std::atomic<int> g_calls{0};

// Hashes the evaluator should stall on (simulating a straggler shard).
std::mutex g_slow_mutex;
std::set<std::uint64_t> g_slow_hashes;

void set_slow_hashes(std::set<std::uint64_t> hashes) {
  std::lock_guard<std::mutex> lock(g_slow_mutex);
  g_slow_hashes = std::move(hashes);
}

bool is_slow(std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(g_slow_mutex);
  return g_slow_hashes.count(hash) != 0;
}

std::atomic<int> g_slow_ms{120};

// Deterministic synthetic evaluator; optionally slow for selected hashes.
std::string shard_eval(const CellSpec& spec) {
  g_calls.fetch_add(1);
  if (is_slow(spec.content_hash())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(g_slow_ms.load()));
  }
  const double a = spec.param_num("a", 0.0);
  const double b = spec.param_num("b", 0.0);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"sum\":%.10g,\"prod\":%.10g}", a + b,
                a * b);
  return buf;
}

CellSpec cell(double a, double b) {
  CellSpec spec("shardsynth");
  spec.set("a", a).set("b", b);
  return spec;
}

/// A spec whose unique cells land on every one of `n_shards` shards (at
/// least `per_shard` each) — ownership is content_hash % n_shards, so we
/// keep minting cells until the layout balances. The two params vary
/// independently: FNV-1a's low bits track byte parity, so bumping the same
/// digit in both params would cancel and pin every cell to one shard.
CampaignSpec balanced_spec(std::size_t n_shards, std::size_t per_shard) {
  CampaignSpec spec;
  spec.name = "shardtest";
  std::vector<std::size_t> owned(n_shards, 0);
  auto filled = [&] {
    for (std::size_t count : owned)
      if (count < per_shard) return false;
    return true;
  };
  for (std::size_t i = 0; !filled(); ++i) {
    EXPECT_LT(spec.cells.size(), 64u) << "hash layout failed to balance";
    if (spec.cells.size() >= 64) break;
    CellSpec c = cell(0.5 + 1.25 * static_cast<double>(i),
                      0.37 * static_cast<double>(i * i + 3));
    owned[c.content_hash() % n_shards]++;
    spec.cells.push_back(std::move(c));
  }
  return spec;
}

CellSpec sweep_cell(const char* kind, std::size_t seed, std::size_t trials,
                    std::size_t retries) {
  CellSpec spec(kind);
  spec.set("seed", seed).set("trials", trials).set("retries", retries);
  return spec;
}

/// Two seeds per built-in sweep kind, each seed a family of two or three
/// cells, with a lone shardsynth cell between them.
CampaignSpec family_spec() {
  CampaignSpec spec;
  spec.name = "shardfamilies";
  for (const std::size_t seed : {13u, 14u}) {
    for (const double snr : {30.0, 8.0, 2.0}) {
      spec.cells.push_back(
          sweep_cell("waterfall", seed, 4, 2).set("snr_db", snr));
    }
  }
  spec.cells.push_back(cell(1.0, 2.0));
  for (const std::size_t seed : {17u, 18u}) {
    spec.cells.push_back(sweep_cell("matrix", seed, 4, 2)
                             .set("medium", "water")
                             .set("loss_db", 2.0)
                             .set("snr_db", 30.0)
                             .set("antennas", std::size_t{1}));
    spec.cells.push_back(sweep_cell("matrix", seed, 4, 2)
                             .set("medium", "gastric")
                             .set("loss_db", 9.0)
                             .set("snr_db", 0.0)
                             .set("antennas", std::size_t{10}));
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

std::string temp_base(const std::string& name) {
  return testing::TempDir() + "campaign_shard_" + name + ".jsonl";
}

void remove_shard_files(const std::string& base, std::size_t n_shards) {
  for (std::size_t k = 0; k < n_shards; ++k) {
    std::remove(shard_journal_path(base, k).c_str());
  }
  std::remove(shard_claims_path(base).c_str());
}

/// The fleet `ivnet campaign run --shards N` forks, on threads: start a
/// claims generation, run every shard's worker concurrently, then merge.
CampaignReport run_fleet(const CampaignSpec& spec,
                         const ShardOptions& options) {
  reset_campaign_claims(options);
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < options.n_shards; ++k) {
    workers.emplace_back([&, k] {
      try {
        run_campaign_shard(spec, options, k);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "shard " << k << ": " << e.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ShardMergeReport merged = merge_campaign_shards(spec, options);
  EXPECT_TRUE(merged.complete()) << merged.cells_missing << " cells missing";
  return std::move(merged.report);
}

class CampaignShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_cell_evaluator("shardsynth", shard_eval);
    CellCache::instance().clear();
    g_calls.store(0);
    set_slow_hashes({});
    g_slow_ms.store(120);
  }
  void TearDown() override {
    CellCache::instance().clear();
    set_slow_hashes({});
    set_parallel_threads(0);
    obs::install_null();
  }
};

TEST_F(CampaignShardTest, MergedFleetIsByteIdenticalAtAnyShardAndThreadCount) {
  const CampaignSpec spec = balanced_spec(3, 2);
  const std::string reference = run_campaign(spec).results_json();

  const std::string base = temp_base("matrix");
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      set_parallel_threads(threads);
      CellCache::instance().clear();
      remove_shard_files(base, shards);
      ShardOptions options{base, shards, /*fresh=*/true};
      const CampaignReport report = run_fleet(spec, options);
      EXPECT_EQ(report.results_json(), reference)
          << "diverged at " << shards << " shards x " << threads
          << " threads";
    }
    remove_shard_files(base, shards);
  }
}

TEST_F(CampaignShardTest, FamilyFleetsMergeByteIdenticalAndJournalCellsOnce) {
  // Workers claim and compute the sweep kinds' (kind, seed) families whole;
  // however the families fall to the shards, the merge equals the
  // single-process run and no cell is journaled twice.
  const CampaignSpec spec = family_spec();
  std::set<std::uint64_t> unique;
  for (const auto& c : spec.cells) unique.insert(c.content_hash());
  const std::string reference = run_campaign(spec).results_json();

  const std::string base = temp_base("families");
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      set_parallel_threads(threads);
      CellCache::instance().clear();
      remove_shard_files(base, shards);
      const ShardOptions options{base, shards, /*fresh=*/true};
      EXPECT_EQ(run_fleet(spec, options).results_json(), reference)
          << "diverged at " << shards << " shards x " << threads
          << " threads";
      std::map<std::uint64_t, std::size_t> records;
      for (std::size_t k = 0; k < shards; ++k) {
        for (const JournalEntry& entry :
             read_campaign_journal(shard_journal_path(base, k))) {
          ++records[entry.hash];
        }
      }
      EXPECT_EQ(records.size(), unique.size());
      for (const auto& [hash, count] : records) {
        EXPECT_EQ(count, 1u) << "cell " << hash << " journaled " << count
                             << " times at " << shards << " shards x "
                             << threads << " threads";
      }
    }
    remove_shard_files(base, shards);
  }
}

TEST_F(CampaignShardTest, HeldFamilyCellIsLeftToTheNextClaimsGeneration) {
  register_builtin_cell_evaluators();
  const CampaignSpec spec = family_spec();
  const std::string reference = run_campaign(spec).results_json();
  CellCache::instance().clear();
  std::map<std::uint64_t, std::string> alone;
  for (const CellSpec& c : spec.cells) {
    alone[c.content_hash()] = resolve_cell(c, "").result_json;
  }
  CellCache::instance().clear();

  // The second cell of the first matrix family, claimed by shard 1 as if
  // it were computing it.
  std::vector<std::size_t> matrix;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (spec.cells[i].kind == "matrix") matrix.push_back(i);
  }
  const std::size_t held = matrix.at(1);
  const std::uint64_t held_hash = spec.cells[held].content_hash();

  const std::string base = temp_base("held");
  remove_shard_files(base, 2);
  const ShardOptions options{base, 2, /*fresh=*/true};
  reset_campaign_claims(options);
  {
    char line[32];
    std::snprintf(line, sizeof(line), "%016llx 1\n",
                  static_cast<unsigned long long>(held_hash));
    std::ofstream(shard_claims_path(base), std::ios::binary) << line;
  }

  // Shard 0 computes every other cell, the held cell's family included, and
  // each result is the cell's lone bytes.
  const ShardWorkerReport report = run_campaign_shard(spec, options, 0);
  EXPECT_EQ(report.cells_computed, alone.size() - 1);
  std::size_t records = 0;
  for (const JournalEntry& entry :
       read_campaign_journal(shard_journal_path(base, 0))) {
    ++records;
    EXPECT_NE(entry.hash, held_hash);
    EXPECT_EQ(entry.result_json, alone.at(entry.hash));
  }
  EXPECT_EQ(records, alone.size() - 1);

  ShardMergeReport merged = merge_campaign_shards(spec, options);
  EXPECT_EQ(merged.cells_missing, 1u);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_EQ(merged.report.outcomes[i].result_json.empty(), i == held) << i;
  }

  // The next claims generation computes only the held cell.
  const ShardOptions resume{base, 2, /*fresh=*/false};
  reset_campaign_claims(resume);
  CellCache::instance().clear();
  const ShardWorkerReport resumed = run_campaign_shard(spec, resume, 0);
  EXPECT_EQ(resumed.cells_computed, 1u);
  EXPECT_EQ(resumed.cells_resumed, alone.size() - 1);
  merged = merge_campaign_shards(spec, resume);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.report.results_json(), reference);
  remove_shard_files(base, 2);
}

TEST_F(CampaignShardTest, FastWorkerStealsStragglerCellsExactlyOnce) {
  const CampaignSpec spec = balanced_spec(2, 3);
  const std::string reference = run_campaign(spec).results_json();

  std::set<std::uint64_t> unique;
  std::set<std::uint64_t> slow;  // every cell shard 1 owns stalls 120 ms
  for (const auto& c : spec.cells) {
    const std::uint64_t hash = c.content_hash();
    unique.insert(hash);
    if (hash % 2 == 1) slow.insert(hash);
  }
  set_slow_hashes(std::move(slow));

  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  CellCache::instance().clear();
  g_calls.store(0);
  // Concurrent pool_run submissions serialize on the shared pool, so the
  // two in-process workers need serial cell loops to truly overlap.
  set_parallel_threads(1);

  const std::string base = temp_base("steal");
  remove_shard_files(base, 2);
  const ShardOptions options{base, 2, /*fresh=*/true};
  reset_campaign_claims(options);

  ShardWorkerReport reports[2];
  std::thread fast([&] { reports[0] = run_campaign_shard(spec, options, 0); });
  std::thread slow_worker(
      [&] { reports[1] = run_campaign_shard(spec, options, 1); });
  fast.join();
  slow_worker.join();
  obs::install_null();

  // Exactly-once: the claims file arbitrates, whatever the interleaving.
  EXPECT_EQ(static_cast<std::size_t>(g_calls.load()), unique.size());
  // Worker 0 drains its fast cells and then steals from the straggler.
  EXPECT_GE(reports[0].cells_stolen, 1u);
  EXPECT_EQ(reports[0].cells_computed + reports[1].cells_computed,
            unique.size());
  EXPECT_GE(registry.counter("campaign.cells.stolen").value(), 1u);

  const ShardMergeReport merged = merge_campaign_shards(spec, options);
  EXPECT_TRUE(merged.complete());
  EXPECT_GE(merged.cells_stolen, 1u);
  EXPECT_EQ(merged.report.results_json(), reference);
  remove_shard_files(base, 2);
}

TEST_F(CampaignShardTest, SoloWorkerStealsEveryForeignCell) {
  const CampaignSpec spec = balanced_spec(3, 1);
  const std::string reference = run_campaign(spec).results_json();
  CellCache::instance().clear();
  g_calls.store(0);

  const std::string base = temp_base("solo");
  remove_shard_files(base, 3);
  const ShardOptions options{base, 3, /*fresh=*/true};
  reset_campaign_claims(options);

  // Only shard 1 shows up for work: it must compute its own cells AND
  // steal both absent shards' entire backlogs.
  const ShardWorkerReport report = run_campaign_shard(spec, options, 1);
  std::set<std::uint64_t> unique;
  for (const auto& c : spec.cells) unique.insert(c.content_hash());
  EXPECT_EQ(report.cells_computed, unique.size());
  EXPECT_EQ(report.cells_stolen, unique.size() - report.cells_owned);
  EXPECT_GE(report.cells_stolen, 1u);

  const ShardMergeReport merged = merge_campaign_shards(spec, options);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.report.results_json(), reference);
  remove_shard_files(base, 3);
}

TEST_F(CampaignShardTest, MergeCountsMissingCellsUntilEveryShardReports) {
  const CampaignSpec spec = balanced_spec(3, 1);
  std::set<std::uint64_t> unique;
  for (const auto& c : spec.cells) unique.insert(c.content_hash());

  const std::string base = temp_base("missing");
  remove_shard_files(base, 3);
  const ShardOptions options{base, 3, /*fresh=*/false};

  // No shard has journaled anything: every unique cell is missing.
  ShardMergeReport merged = merge_campaign_shards(spec, options);
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.cells_missing, unique.size());

  // Journal exactly one cell by hand; the gap shrinks by one.
  std::FILE* file = std::fopen(shard_journal_path(base, 0).c_str(), "wb");
  ASSERT_NE(file, nullptr);
  detail::append_journal_record(file, spec.cells[0],
                                spec.cells[0].content_hash(),
                                "{\"sum\":1.5,\"prod\":0.5}");
  std::fclose(file);
  merged = merge_campaign_shards(spec, options);
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.cells_missing, unique.size() - 1);
  remove_shard_files(base, 3);
}

TEST_F(CampaignShardTest, TornShardJournalTailRecomputesOnlyTheLostCell) {
  const CampaignSpec spec = balanced_spec(2, 2);
  const std::string reference = run_campaign(spec).results_json();

  const std::string base = temp_base("torn");
  remove_shard_files(base, 2);
  ShardOptions options{base, 2, /*fresh=*/true};
  CellCache::instance().clear();
  run_fleet(spec, options);

  // Drop a shard's last durable record and leave a torn half-line in its
  // place — the tail a SIGKILL mid-fwrite leaves behind. Stealing decides
  // how the four records split between the two journals, so tear the one
  // with more records: it holds at least two.
  std::string torn_path;
  std::string content;
  for (std::size_t k = 0; k < 2; ++k) {
    std::ifstream in(shard_journal_path(base, k), std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    if (std::count(text.begin(), text.end(), '\n') >
        std::count(content.begin(), content.end(), '\n')) {
      torn_path = shard_journal_path(base, k);
      content = std::move(text);
    }
  }
  ASSERT_FALSE(content.empty());
  const std::size_t cut = content.rfind('\n', content.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out << content.substr(0, cut + 1) << "{\"hash\":\"01ab";
  }

  CellCache::instance().clear();
  g_calls.store(0);
  options.fresh = false;  // resume generation
  const CampaignReport report = run_fleet(spec, options);
  EXPECT_EQ(g_calls.load(), 1) << "only the torn-away cell recomputes";
  EXPECT_EQ(report.results_json(), reference);
  remove_shard_files(base, 2);
}

TEST_F(CampaignShardTest, ShardJournalsCarryOwnershipMetadata) {
  const CampaignSpec spec = balanced_spec(2, 1);
  const std::string base = temp_base("meta");
  remove_shard_files(base, 2);
  const ShardOptions options{base, 2, /*fresh=*/true};
  CellCache::instance().clear();
  run_fleet(spec, options);

  std::size_t records = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    for (const JournalEntry& entry :
         read_campaign_journal(shard_journal_path(base, k))) {
      ++records;
      EXPECT_EQ(entry.shard, k) << "journal writer must stamp its shard";
      EXPECT_GE(entry.seconds, 0.0);
      EXPECT_FALSE(entry.result_json.empty());
    }
  }
  std::set<std::uint64_t> unique;
  for (const auto& c : spec.cells) unique.insert(c.content_hash());
  EXPECT_EQ(records, unique.size());
  remove_shard_files(base, 2);
}

TEST_F(CampaignShardTest, ObsCountersSurfaceFleetTraffic) {
  const CampaignSpec spec = balanced_spec(2, 2);
  std::set<std::uint64_t> slow;  // a few ms per cell so t_s lands > 0
  for (const auto& c : spec.cells) slow.insert(c.content_hash());
  set_slow_hashes(std::move(slow));
  g_slow_ms.store(3);

  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  const std::string base = temp_base("obs");
  remove_shard_files(base, 2);
  const ShardOptions options{base, 2, /*fresh=*/true};
  CellCache::instance().clear();
  run_fleet(spec, options);
  obs::install_null();

  std::set<std::uint64_t> unique;
  for (const auto& c : spec.cells) unique.insert(c.content_hash());
  EXPECT_EQ(registry.counter("campaign.shards").value(), 2u);
  EXPECT_EQ(registry.counter("campaign.cells.merged").value(), unique.size());
  EXPECT_EQ(registry.counter("campaign.cells.missing").value(), 0u);
  const std::string snapshot = registry.snapshot_json();
  EXPECT_NE(snapshot.find("\"campaign.cell.seconds\""), std::string::npos);

  // Which shard computes which cell is up to thread scheduling: concurrent
  // pool_run callers are serialized, so one in-process shard may drain the
  // whole campaign. Only schedule-independent facts are asserted: every
  // unique cell is journaled once, under its writer's stamp, and merge
  // replays each shard's timed records into that shard's histogram.
  std::size_t records = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    std::uint64_t timed = 0;
    for (const JournalEntry& entry :
         read_campaign_journal(shard_journal_path(base, k))) {
      ++records;
      EXPECT_EQ(entry.shard, k) << "journal writer must stamp its shard";
      if (entry.seconds > 0.0) ++timed;
    }
    const std::string name =
        "campaign.shard" + std::to_string(k) + ".cell.seconds";
    if (timed == 0) {
      EXPECT_EQ(snapshot.find("\"" + name + "\""), std::string::npos)
          << name << " exists for a shard with no timed records";
    } else {
      ASSERT_NE(snapshot.find("\"" + name + "\""), std::string::npos)
          << "merge must replay per-shard compute-time histograms";
      EXPECT_EQ(registry.histogram(name).view().count, timed) << name;
    }
  }
  EXPECT_EQ(records, unique.size());
  remove_shard_files(base, 2);
}

TEST_F(CampaignShardTest, ShardedRunValidatesItsArguments) {
  const CampaignSpec spec = balanced_spec(2, 1);
  ShardOptions options{"", 3, false};
  EXPECT_THROW(run_campaign_shard(spec, options, 0), std::invalid_argument);
  const std::string base = temp_base("args");
  EXPECT_THROW(run_campaign_shard(spec, {base, 2, false}, 2),
               std::invalid_argument);
  EXPECT_THROW(run_campaign_shard(spec, {base, 0, false}, 0),
               std::invalid_argument);
  remove_shard_files(base, 2);
}

}  // namespace
}  // namespace ivnet
