// Sweep-campaign engine: declarative (scenario x plan x trials x seed)
// grids evaluated as independent cells on the shared thread pool,
// journaled to an append-only JSONL checkpoint, and memoized in a
// process-wide cache keyed by a content hash of each cell's inputs.
//
//   * A CELL is one (evaluator kind, parameter map) pair. Parameters are
//     strings with fixed formatting, so the canonical JSON — and therefore
//     the FNV-1a content hash — never drifts with locale or float state.
//   * The JOURNAL is one fsync'd JSONL record per completed cell. A run
//     killed at any point resumes by replaying the journal: finished cells
//     are emitted verbatim from their journaled result text, so an
//     interrupted-then-resumed campaign produces BYTE-IDENTICAL final JSON
//     to an uninterrupted one, at any IVNET_THREADS. Torn or corrupt
//     journal lines (the tail of a SIGKILL'd write) are skipped and their
//     cells recomputed.
//   * The CACHE memoizes result text by content hash for the lifetime of
//     the process, so cells shared between benches (Fig. 9 and Fig. 13
//     share their water-tank gain anchors) evaluate once. Cache-resolved
//     cells are still appended to the journal so every journal is a
//     self-contained checkpoint of its own campaign.
//
//   * A FAMILY is the pending cells of one built-in sweep kind (waterfall,
//     matrix, depth, burst_retry) that share a `seed`, and so their trial
//     streams. run_campaign and the shard workers compute a family in one
//     trial-major pass (impair/waterfall.hpp's run_sweep_items), drawing
//     each trial's noise once for all its cells. A shard worker claims a
//     family whole; the cell stays the unit of the journal and the cache.
//
// Determinism contract: evaluators must be pure functions of the CellSpec
// (all randomness from an Rng seeded by a `seed` parameter, trial loops on
// counter-derived Rng::stream sub-streams), so a cell's result text is
// independent of thread count, evaluation order, which campaign asked, and
// whether its family computed it with other cells or alone.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ivnet {

/// One sweep cell: an evaluator kind plus its parameters. The param map is
/// ordered, so the canonical form is independent of insertion order.
struct CellSpec {
  std::string kind;
  std::map<std::string, std::string> params;

  CellSpec() = default;
  explicit CellSpec(std::string kind_) : kind(std::move(kind_)) {}

  /// Typed setters with fixed value formatting (doubles via the JSON
  /// writer's shortest-round-trip std::to_chars, integers via decimal) —
  /// the hash input never drifts.
  CellSpec& set(const std::string& key, const std::string& value);
  CellSpec& set(const std::string& key, const char* value);
  CellSpec& set(const std::string& key, double value);
  CellSpec& set(const std::string& key, std::size_t value);

  std::string param(const std::string& key, const std::string& fallback) const;
  double param_num(const std::string& key, double fallback) const;

  /// {"kind":...,"params":{...sorted...}} — the content-hash input.
  std::string canonical_json() const;

  /// FNV-1a 64 over canonical_json(). Identical params => identical hash,
  /// whatever campaign, process, or thread evaluated the cell.
  std::uint64_t content_hash() const;
};

/// Evaluates one cell to its result: a complete JSON object in text form,
/// byte-stable for equal specs (use JsonWriter; seed all randomness from
/// the spec's `seed` parameter).
using CellEvaluator = std::function<std::string(const CellSpec&)>;

/// Register an evaluator for `kind` (replaces any previous registration).
void register_cell_evaluator(const std::string& kind, CellEvaluator evaluator);

/// Process-wide memo of cell results keyed by content hash. Thread-safe.
class CellCache {
 public:
  static CellCache& instance();

  /// True (and fills *result_json) when `hash` is memoized.
  bool lookup(std::uint64_t hash, std::string* result_json) const;
  void insert(std::uint64_t hash, std::string result_json);
  void clear();

 private:
  CellCache() = default;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::string> results_;
};

/// A named list of cells. Duplicate cells (same hash) are legal and
/// evaluate once.
struct CampaignSpec {
  std::string name;
  std::vector<CellSpec> cells;
};

/// Where a cell's result came from in this run.
enum class CellSource {
  kComputed,  ///< evaluated fresh in this run
  kJournal,   ///< replayed from the journal (resume)
  kCache,     ///< memo hit (earlier campaign or duplicate cell)
};

struct CellOutcome {
  CellSpec spec;
  std::uint64_t hash = 0;
  std::string result_json;  ///< evaluator output, verbatim
  CellSource source = CellSource::kComputed;
};

struct CampaignOptions {
  /// Append-only JSONL checkpoint. Empty disables journaling (and resume).
  std::string journal_path;
  /// Truncate an existing journal instead of resuming from it.
  bool fresh = false;
};

struct CampaignReport {
  std::string name;
  std::vector<CellOutcome> outcomes;  ///< spec order
  std::size_t cells_total = 0;
  std::size_t cells_computed = 0;
  std::size_t cells_resumed = 0;  ///< replayed from the journal
  std::size_t cache_hits = 0;     ///< memo hits (incl. in-spec duplicates)

  /// {"campaign":...,"cells":[{kind,params,hash,result}...]} in spec order.
  /// Byte-identical for interrupted-then-resumed and uninterrupted runs.
  std::string results_json() const;
};

/// Run every cell of `spec`: resolve from journal, then memo cache, then
/// compute the rest. Cells of other kinds run one per pool claim; each
/// family of sweep cells then runs as one dispatch of (family, trial) units
/// across the pool, one family after another in the spec order of their
/// first cells, and is journaled once complete (a kill loses at most the
/// family in flight). Trial t of the cell at spec index i emits its
/// sim-trace events on track (sum of `trials` of cells 0..i-1) + t. Each
/// computed cell is appended to the journal and fsync'd before it can
/// appear in any final output. Throws std::invalid_argument when a cell
/// kind has no registered evaluator.
CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

/// Durable single-cell memo (the planner's plan store): resolve `spec`
/// against the journal at `journal_path` (same format and torn-tail rules
/// as a campaign journal; empty path skips persistence), then the
/// process-wide CellCache, else compute with the registered evaluator.
/// A result not already in the journal is appended and fsync'd before this
/// returns, so an identical spec resolved by a later process replays the
/// stored bytes instead of recomputing. Calls are serialized process-wide;
/// cross-process writers of one journal need external coordination (the
/// intended deployment is one planner process per store, like the
/// single-process campaign journal). Throws std::invalid_argument for an
/// unregistered kind and propagates evaluator exceptions.
CellOutcome resolve_cell(const CellSpec& spec,
                         const std::string& journal_path);

/// One replayable journal record. Shard journals carry extra metadata
/// (owner shard, stolen flag, compute seconds) ahead of the cell; a
/// single-process journal leaves the defaults.
struct JournalEntry {
  std::uint64_t hash = 0;
  std::string result_json;
  std::size_t shard = kNoShard;  ///< worker that journaled the record
  bool stolen = false;           ///< claimed from another shard's backlog
  double seconds = 0.0;          ///< compute time (0 for cache/replayed)

  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
};

/// Parse a campaign journal, skipping torn or corrupt lines (a record is
/// only trusted when its line is newline-terminated and well-formed).
/// Missing file => empty.
std::vector<JournalEntry> read_campaign_journal(const std::string& path);

// --- Distributed campaigns -----------------------------------------------
// N cooperating worker processes split one campaign: every lone cell or
// family is OWNED by shard `content_hash % n_shards` of its first spec cell,
// each worker appends to its own journal `<path>.shard<k>.jsonl` (same
// durable-append + torn-tail rules as the single-process journal), and a
// worker that drains its own units STEALS unfinished ones from the others
// through an fcntl-locked claims file `<path>.claims` — one claim line per
// cell, a unit's in one critical section, so every cell is computed exactly
// once per run generation whatever the interleaving. The coordinator merges
// all shard journals in spec order; the merged results JSON is
// byte-identical to a single-process run at any shard count x thread count.

/// Shard layout shared by every worker and the coordinator.
struct ShardOptions {
  /// Base journal path; shard k journals to `<path>.shard<k>.jsonl` and
  /// claims go to `<path>.claims`. Must be non-empty.
  std::string journal_path;
  std::size_t n_shards = 1;
  /// Coordinator-only: discard shard journals before launching workers.
  bool fresh = false;
};

std::string shard_journal_path(const std::string& base, std::size_t shard);
std::string shard_claims_path(const std::string& base);

/// Coordinator: start a new run generation — truncate the claims file (a
/// claim only arbitrates liveness within one generation; durability lives
/// in the journals) and, when `options.fresh`, delete the shard journals.
/// Call exactly once before launching workers; never while workers run.
void reset_campaign_claims(const ShardOptions& options);

struct ShardWorkerReport {
  std::size_t shard = 0;
  std::size_t cells_owned = 0;     ///< unique unresolved cells of owned units
  std::size_t cells_computed = 0;  ///< evaluated by this worker (own + stolen)
  std::size_t cells_stolen = 0;    ///< computed cells owned by another shard
  std::size_t cells_from_cache = 0;  ///< journaled from the memo cache
  std::size_t cells_resumed = 0;   ///< already in some shard journal
};

/// Run ONE worker's share of `spec` with run_campaign's cell runner: every
/// shard's journal -> claim -> memo cache -> compute. A unit's cells are
/// claimed in one claims-file critical section; a family partly won runs as
/// a smaller family with the same bytes and `t_s` its share of the family's
/// wall time. Owned units first, then the others' unfinished ones (stolen).
/// Throws std::invalid_argument for an unknown kind and std::runtime_error
/// when a journal append cannot be made durable.
ShardWorkerReport run_campaign_shard(const CampaignSpec& spec,
                                     const ShardOptions& options,
                                     std::size_t shard);

struct ShardMergeReport {
  CampaignReport report;            ///< spec-order outcomes, journal-sourced
  std::size_t cells_missing = 0;    ///< unique cells no shard journaled
  std::size_t cells_stolen = 0;     ///< journal records marked stolen
  bool complete() const { return cells_missing == 0; }
};

/// Merge every shard journal into a spec-order report. When complete(),
/// `report.results_json()` is byte-identical to the single-process
/// `run_campaign` output. Emits `campaign.shards`, `campaign.cells.merged`,
/// `campaign.cells.missing` counters and per-shard
/// `campaign.shard<k>.cell.seconds` histograms from the journal metadata.
ShardMergeReport merge_campaign_shards(const CampaignSpec& spec,
                                       const ShardOptions& options);

namespace detail {
/// Append one journal record to `file` and make it durable: the fwrite,
/// fflush, AND fsync must all succeed or this throws std::runtime_error —
/// a cell is never reported computed without a durable journal line.
/// `extras` is spliced verbatim between the hash and cell fields (shard
/// metadata; must be empty or end with ','). Exposed for tests.
void append_journal_record(std::FILE* file, const CellSpec& spec,
                           std::uint64_t hash, const std::string& result_json,
                           const std::string& extras = "");
}  // namespace detail

// --- Figure campaigns ----------------------------------------------------
// Built-in evaluator kinds: "gain" (blind-channel gain trials), "range"
// (max air range / water depth search), "waterfall" (one BER/PER SNR
// point), "matrix" (one media x SNR x antennas session cell), "depth" (one
// success-vs-depth point), "burst_retry" (retry ablation on a bursty
// channel). Registered lazily by the campaign builders and run_campaign.
void register_builtin_cell_evaluators();

/// Fig. 9: water-tank gain vs antenna count, one gain cell per N in 1..10.
CampaignSpec fig9_campaign(std::size_t gain_trials = 150);

/// Fig. 13: range/depth vs antenna count for tag x medium, plus the
/// Fig. 9 water-tank gain anchors at N=1 and N=8 — the cells the two
/// campaigns share (identical hash => the memo cache evaluates them once
/// per process).
CampaignSpec fig13_campaign(std::size_t gain_trials = 150,
                            std::size_t range_trials = 15);

/// X13: impairment waterfall + media matrix + retry ablation + depth curve.
CampaignSpec x13_campaign(std::size_t trials = 48);

}  // namespace ivnet
