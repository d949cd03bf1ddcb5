#include "ivnet/sim/campaign.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <string_view>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/experiment.hpp"

namespace ivnet {
namespace {

std::string format_param(double value) {
  JsonWriter w;
  w.value(value);  // the writer's shortest-round-trip format — same
                   // formatter as every result
  return w.str();
}

// --- Evaluator registry --------------------------------------------------

/// One cell of a family handed to a batch evaluator: its spec and the
/// sim-trace track of its trial 0.
struct FamilyCell {
  const CellSpec* spec = nullptr;
  std::uint32_t track_base = 0;
};

/// Evaluates cells of one kind together; result i belongs to cells[i] and
/// is byte-equal to what evaluating that cell alone returns.
using BatchEvaluator =
    std::vector<std::string> (*)(std::span<const FamilyCell> cells);

struct Evaluators {
  CellEvaluator single;
  BatchEvaluator batch = nullptr;  ///< the built-in sweep kinds only
};

struct EvaluatorRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, Evaluators> evaluators;  // guarded by mutex

  static EvaluatorRegistry& instance() {
    static EvaluatorRegistry registry;
    return registry;
  }
};

Evaluators find_evaluators(const std::string& kind) {
  auto& reg = EvaluatorRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.evaluators.find(kind);
  if (it == reg.evaluators.end()) return {};
  return it->second;
}

/// Registers `batch` for `kind`; the kind's single-cell evaluator is the
/// batch on a one-cell span, so every path runs the same code.
void register_batch_evaluator(const std::string& kind, BatchEvaluator batch) {
  CellEvaluator single = [batch](const CellSpec& cell) {
    const FamilyCell one{&cell, 0};
    return std::move(batch({&one, 1}).front());
  };
  auto& reg = EvaluatorRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.evaluators[kind] = {std::move(single), batch};
}

/// Default trial counts of the built-in kinds, for cells without a
/// `trials` parameter.
std::size_t cell_trials(const CellSpec& cell) {
  static const std::unordered_map<std::string, double> kDefaults = {
      {"gain", 150.0},     {"range", 15.0}, {"waterfall", 32.0},
      {"matrix", 24.0},    {"depth", 32.0}, {"burst_retry", 200.0}};
  const auto it = kDefaults.find(cell.kind);
  return static_cast<std::size_t>(
      cell.param_num("trials", it == kDefaults.end() ? 0.0 : it->second));
}

// --- Journal -------------------------------------------------------------

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// One journal record; `result_json` is spliced in verbatim so a replay
/// reproduces the evaluator's bytes exactly. `extras` (shard metadata)
/// sits between the hash and cell fields so the result stays the record's
/// final field — the reader slices it off the closing brace.
std::string journal_line(const CellSpec& spec, std::uint64_t hash,
                         const std::string& result_json,
                         const std::string& extras = "") {
  std::string line = "{\"hash\":\"" + hash_hex(hash) + "\",";
  line += extras;
  line += "\"cell\":";
  line += spec.canonical_json();
  line += ",\"result\":";
  line += result_json;
  line += "}\n";
  return line;
}

/// True when `text` is a brace/bracket-balanced JSON fragment starting at
/// '{' — the cheap structural check that rejects torn journal tails without
/// pulling in a full parser. Tracks strings so quoted braces don't count.
bool balanced_json_object(const std::string& text) {
  if (text.empty() || text.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      if (depth == 0) return i == text.size() - 1;
      if (depth < 0) return false;
    }
  }
  return false;
}

/// The bytes of the file at `path`; empty when it is missing. Binary mode:
/// the journal reader and the torn-tail truncator walk the same byte
/// offsets, so a result text carrying \r bytes can never make them disagree
/// about where a record ends.
std::string read_file_bytes(const std::string& path) {
  std::string content;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// Drop any newline-less tail (a record torn by a crash mid-write) so the
/// next append starts on a record boundary. No-op on missing/clean files.
void truncate_torn_tail(const std::string& path) {
  const std::string content = read_file_bytes(path);
  if (content.empty() || content.back() == '\n') return;
  const std::size_t last_nl = content.find_last_of('\n');
  const std::size_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
  (void)::truncate(path.c_str(), static_cast<off_t>(keep));
}

/// Serialized appender owning the journal FILE*. Every record is flushed
/// AND fsync'd before append() returns: once a caller observes a cell as
/// journaled, a crash cannot un-journal it.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path, bool fresh) {
    if (path.empty()) return;
    // A SIGKILL mid-append leaves a torn, newline-less tail. Appending a
    // fresh record onto it would glue the two lines into one corrupt one,
    // losing BOTH cells — truncate back to the last complete record first.
    if (!fresh) truncate_torn_tail(path);
    file_ = std::fopen(path.c_str(), fresh ? "w" : "a");
    if (file_ == nullptr) {
      throw std::runtime_error("campaign: cannot open journal " + path);
    }
  }
  ~JournalWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append(const CellSpec& spec, std::uint64_t hash,
              const std::string& result_json,
              const std::string& extras = "") {
    if (file_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    detail::append_journal_record(file_, spec, hash, result_json, extras);
  }

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

/// The evaluators for every cell of `spec`, resolved up front: a bad kind
/// must fail before any work (and never from inside the pool, where
/// exceptions cannot propagate).
std::vector<Evaluators> resolve_evaluators(const CampaignSpec& spec) {
  register_builtin_cell_evaluators();
  std::vector<Evaluators> evaluators(spec.cells.size());
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    evaluators[i] = find_evaluators(spec.cells[i].kind);
    if (!evaluators[i].single) {
      throw std::invalid_argument("campaign: no evaluator for kind '" +
                                  spec.cells[i].kind + "'");
    }
  }
  return evaluators;
}

/// The one cell runner of run_campaign and the shard workers: groups the
/// cells `pending` marks (unique, unresolved) into lone cells and (kind,
/// seed) families, owned by shard `content_hash % n_shards` of their first
/// spec cell. Owned units run first, then the rest (stolen): lone cells one
/// per pool claim, then each family as one top-level dispatch (inside a
/// pool claim it would run on one thread). `claim` returns the cells of a
/// unit to compute; `finish` takes each result, a family's once the family
/// is done. Returns how many pending cells `shard` owns.
template <typename Claim, typename Finish>
std::size_t run_cells(const CampaignSpec& spec,
                      const std::vector<Evaluators>& evaluators,
                      const std::vector<bool>& pending, std::size_t shard,
                      std::size_t n_shards, Claim&& claim, Finish&& finish) {
  // (owned, pending cells) per unit, in spec order of first cells. A
  // cell's sim-trace track follows the trials of the cells before it.
  std::vector<std::pair<bool, std::vector<std::size_t>>> units;
  std::map<std::pair<std::string, std::string>, std::size_t> family_of;
  std::vector<std::uint32_t> track_base(spec.cells.size());
  std::uint32_t next_track = 0;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cell = spec.cells[i];
    track_base[i] = next_track;
    next_track += static_cast<std::uint32_t>(cell_trials(cell));
    std::size_t u = units.size();
    if (evaluators[i].batch != nullptr) {
      u = family_of.try_emplace({cell.kind, cell.param("seed", "")}, u)
              .first->second;
    } else if (!pending[i]) {
      continue;
    }
    if (u == units.size()) {
      units.emplace_back(cell.content_hash() % n_shards == shard,
                         std::vector<std::size_t>{});
    }
    if (pending[i]) units[u].second.push_back(i);
  }

  const auto run_unit = [&](const std::vector<std::size_t>& unit,
                            bool stolen) {
    const std::vector<std::size_t> cells = claim(unit, stolen);
    if (cells.empty()) return;
    const Evaluators& evaluator = evaluators[cells.front()];
    std::vector<FamilyCell> family;
    for (const std::size_t i : cells) {
      family.push_back({&spec.cells[i], track_base[i]});
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::string> results =
        evaluator.batch ? evaluator.batch(family)
                        : std::vector{evaluator.single(*family.front().spec)};
    // A family's cells share its wall time equally.
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(cells.size());
    for (std::size_t k = 0; k < cells.size(); ++k) {
      obs::observe("campaign.cell.seconds", seconds);
      finish(cells[k], std::move(results[k]), seconds, stolen);
    }
  };
  std::size_t owned = 0;
  for (const bool stolen : {false, true}) {
    std::vector<const std::vector<std::size_t>*> lone, families;
    for (const auto& [own, cells] : units) {
      if (cells.empty() || own == stolen) continue;
      if (own) owned += cells.size();
      (evaluators[cells.front()].batch ? families : lone).push_back(&cells);
    }
    detail::for_each_index_guarded(
        lone.size(), [&](std::size_t k) { run_unit(*lone[k], stolen); });
    for (const auto* family : families) run_unit(*family, stolen);
  }
  return owned;
}

}  // namespace

namespace detail {

void append_journal_record(std::FILE* file, const CellSpec& spec,
                           std::uint64_t hash, const std::string& result_json,
                           const std::string& extras) {
  const std::string line = journal_line(spec, hash, result_json, extras);
  // Every step of the durability chain is checked: a short fwrite, a failed
  // fflush, or a failed fsync (ENOSPC, EIO, a read-only fd) means the
  // "durably journaled before observed" contract cannot be met, so the
  // caller must not report the cell as computed.
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size()) {
    throw std::runtime_error(
        std::string("campaign: journal write failed: ") +
        std::strerror(errno));
  }
  if (std::fflush(file) != 0) {
    throw std::runtime_error(
        std::string("campaign: journal flush failed: ") +
        std::strerror(errno));
  }
  if (fsync(fileno(file)) != 0) {
    throw std::runtime_error(
        std::string("campaign: journal fsync failed: ") +
        std::strerror(errno));
  }
}

}  // namespace detail

// --- CellSpec ------------------------------------------------------------

CellSpec& CellSpec::set(const std::string& key, const std::string& value) {
  params[key] = value;
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, const char* value) {
  params[key] = value;
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, double value) {
  params[key] = format_param(value);
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, std::size_t value) {
  params[key] = std::to_string(value);
  return *this;
}

std::string CellSpec::param(const std::string& key,
                            const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

double CellSpec::param_num(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : std::atof(it->second.c_str());
}

std::string CellSpec::canonical_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("kind", kind);
  w.key("params").begin_object();
  for (const auto& [key, value] : params) w.field(key, value);
  w.end_object();
  w.end_object();
  return w.str();
}

std::uint64_t CellSpec::content_hash() const {
  const std::string canonical = canonical_json();
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- Registry / cache ----------------------------------------------------

void register_cell_evaluator(const std::string& kind,
                             CellEvaluator evaluator) {
  auto& reg = EvaluatorRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.evaluators[kind] = {std::move(evaluator), nullptr};
}

CellCache& CellCache::instance() {
  static CellCache cache;
  return cache;
}

bool CellCache::lookup(std::uint64_t hash, std::string* result_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = results_.find(hash);
  if (it == results_.end()) return false;
  if (result_json != nullptr) *result_json = it->second;
  return true;
}

void CellCache::insert(std::uint64_t hash, std::string result_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  results_.emplace(hash, std::move(result_json));
}

void CellCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  results_.clear();
}

// --- Journal reader ------------------------------------------------------

std::vector<JournalEntry> read_campaign_journal(const std::string& path) {
  std::vector<JournalEntry> entries;
  const std::string content = read_file_bytes(path);
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail: no newline, skip
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;

    // {"hash":"<16 hex>",[shard metadata,]"cell":{...},"result":{...}}
    static constexpr std::string_view kPrefix = "{\"hash\":\"";
    if (line.rfind(kPrefix, 0) != 0 || !balanced_json_object(line)) continue;
    const std::string hex = line.substr(kPrefix.size(), 16);
    if (hex.size() != 16 || line[kPrefix.size() + 16] != '"') continue;
    char* end = nullptr;
    const std::uint64_t hash = std::strtoull(hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') continue;
    static constexpr std::string_view kResultKey = ",\"result\":";
    const std::size_t rpos = line.find(kResultKey);
    if (rpos == std::string::npos) continue;
    // Everything between the result key and the record's closing brace.
    std::string result = line.substr(rpos + kResultKey.size(),
                                     line.size() - (rpos + kResultKey.size()) -
                                         1);
    if (!balanced_json_object(result)) continue;
    JournalEntry entry{};
    entry.hash = hash;
    entry.result_json = std::move(result);
    // Shard metadata lives strictly before the cell field, so scanning only
    // that prefix can never pick up a same-named key from the result text.
    const std::size_t cell_pos = line.find("\"cell\":");
    if (cell_pos != std::string::npos) {
      const std::string_view head(line.data(), cell_pos);
      const double shard = json_find_number(head, "shard", -1.0);
      if (shard >= 0.0) entry.shard = static_cast<std::size_t>(shard);
      entry.stolen = json_find_number(head, "stolen", 0.0) != 0.0;
      entry.seconds = json_find_number(head, "t_s", 0.0);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// --- Campaign runner -----------------------------------------------------

std::string CampaignReport::results_json() const {
  std::string out = "{\"campaign\":\"";
  out += json_escape(name);
  out += "\",\"cells\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) out += ',';
    const CellOutcome& o = outcomes[i];
    out += "{\"cell\":";
    out += o.spec.canonical_json();
    out += ",\"hash\":\"" + hash_hex(o.hash) + "\",\"result\":";
    out += o.result_json;
    out += '}';
  }
  out += "]}";
  return out;
}

CellOutcome resolve_cell(const CellSpec& spec,
                         const std::string& journal_path) {
  // One resolver at a time: concurrent service workers re-planning the same
  // scenario must not interleave journal appends or double-compute a cell.
  static std::mutex resolve_mutex;
  std::lock_guard<std::mutex> lock(resolve_mutex);

  CellOutcome outcome;
  outcome.spec = spec;
  outcome.hash = spec.content_hash();
  // Journal first — the only source that survives a process restart.
  bool in_journal = false;
  if (!journal_path.empty()) {
    for (auto& entry : read_campaign_journal(journal_path)) {
      if (entry.hash != outcome.hash) continue;
      outcome.result_json = std::move(entry.result_json);
      outcome.source = CellSource::kJournal;
      in_journal = true;
      break;  // first matching record wins, like the campaign replay
    }
  }
  if (in_journal) {
    CellCache::instance().insert(outcome.hash, outcome.result_json);
    return outcome;
  }
  if (CellCache::instance().lookup(outcome.hash, &outcome.result_json)) {
    outcome.source = CellSource::kCache;
  } else {
    const CellEvaluator evaluator = find_evaluators(spec.kind).single;
    if (!evaluator) {
      throw std::invalid_argument("campaign: no evaluator for kind '" +
                                  spec.kind + "'");
    }
    outcome.result_json = evaluator(spec);
    outcome.source = CellSource::kComputed;
  }
  // Journal BEFORE the memo cache (the run_campaign ordering): the result
  // is durable before any other code path can observe it.
  if (!journal_path.empty()) {
    JournalWriter journal(journal_path, /*fresh=*/false);
    journal.append(spec, outcome.hash, outcome.result_json);
  }
  CellCache::instance().insert(outcome.hash, outcome.result_json);
  return outcome;
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  const std::vector<Evaluators> evaluators = resolve_evaluators(spec);
  CampaignReport report;
  report.name = spec.name;
  report.cells_total = spec.cells.size();
  report.outcomes.resize(spec.cells.size());

  std::unordered_map<std::uint64_t, std::string> journaled;
  if (!options.journal_path.empty() && !options.fresh) {
    for (auto& entry : read_campaign_journal(options.journal_path)) {
      journaled.emplace(entry.hash, std::move(entry.result_json));
    }
  }
  JournalWriter journal(options.journal_path, options.fresh);
  CellCache& cache = CellCache::instance();

  // Serial resolution pass in spec order, so resumed/cache-hit counts are
  // deterministic for any thread count: journal first, then the memo
  // cache, then schedule the first instance of each remaining hash.
  std::vector<bool> pending(spec.cells.size());  // first instances to compute
  std::unordered_map<std::uint64_t, std::size_t> scheduled;  // hash -> index
  std::vector<std::size_t> duplicates;  // later instances of scheduled hashes
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    CellOutcome& out = report.outcomes[i];
    out.spec = spec.cells[i];
    out.hash = spec.cells[i].content_hash();
    if (const auto it = journaled.find(out.hash); it != journaled.end()) {
      out.result_json = it->second;
      out.source = CellSource::kJournal;
      ++report.cells_resumed;
      cache.insert(out.hash, out.result_json);
      continue;
    }
    if (cache.lookup(out.hash, &out.result_json)) {
      out.source = CellSource::kCache;
      ++report.cache_hits;
      // Cache-resolved cells still land in THIS journal, so the journal
      // alone replays the whole campaign.
      journal.append(out.spec, out.hash, out.result_json);
      continue;
    }
    if (scheduled.count(out.hash) > 0) {
      duplicates.push_back(i);  // resolved from the first instance below
      ++report.cache_hits;
      continue;
    }
    scheduled.emplace(out.hash, i);
    pending[i] = true;
    ++report.cells_computed;
  }

  obs::count("campaign.cells.total", report.cells_total);
  obs::count("campaign.cells.resumed", report.cells_resumed);
  obs::count("campaign.cache.misses", report.cells_computed);

  // One shard and no claims file: every pending cell is this run's.
  run_cells(spec, evaluators, pending, /*shard=*/0, /*n_shards=*/1,
            [](const std::vector<std::size_t>& cells, bool) { return cells; },
            [&](std::size_t i, std::string result, double, bool) {
              CellOutcome& out = report.outcomes[i];
              out.result_json = std::move(result);
              out.source = CellSource::kComputed;
              // Journal BEFORE the memo cache: once any code path can observe
              // the result, its journal line is already durable.
              journal.append(out.spec, out.hash, out.result_json);
              cache.insert(out.hash, out.result_json);
            });

  for (const std::size_t i : duplicates) {
    CellOutcome& out = report.outcomes[i];
    out.result_json = report.outcomes[scheduled.at(out.hash)].result_json;
    out.source = CellSource::kCache;
  }

  obs::count("campaign.cells.computed", report.cells_computed);
  obs::count("campaign.cache.hits", report.cache_hits);
  return report;
}

// --- Distributed campaigns -----------------------------------------------

namespace {

/// Exactly-once arbitration for one run generation: an append-only file of
/// `<16-hex-hash> <shard>` lines, serialized by an fcntl whole-file write
/// lock (cross-process) nested inside a process-wide mutex (fcntl record
/// locks do not exclude threads of the same process). A worker may only
/// evaluate a cell after winning its claim; losing means some other worker
/// is computing (or has computed) it. Claims are NOT durable state — the
/// journals are — so the coordinator truncates this file at the start of
/// every generation and a claimed-but-never-journaled cell (its claimant
/// was SIGKILLed) is simply recomputed on the next resume.
class ClaimsFile {
 public:
  explicit ClaimsFile(std::string path) : path_(std::move(path)) {}

  /// Claims every one of `hashes` that nobody holds, in one critical
  /// section, and returns those this worker won, in order.
  std::vector<std::uint64_t> claim(std::span<const std::uint64_t> hashes,
                                   std::size_t shard) {
    static std::mutex process_mutex;
    std::lock_guard<std::mutex> guard(process_mutex);
    const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      throw std::runtime_error("campaign: cannot open claims file " + path_);
    }
    struct ::flock lock {};
    lock.l_type = F_WRLCK;
    lock.l_whence = SEEK_SET;
    lock.l_start = 0;
    lock.l_len = 0;  // whole file
    while (::fcntl(fd, F_SETLKW, &lock) != 0) {
      if (errno != EINTR) {
        ::close(fd);
        throw std::runtime_error("campaign: claims lock failed on " + path_);
      }
    }
    std::vector<std::uint64_t> won;
    try {
      const std::string content = read_all(fd);
      std::unordered_set<std::string> held;  // each line's first 16 bytes
      for (std::size_t pos = 0, eol = 0; pos < content.size(); pos = eol + 1) {
        eol = std::min(content.find('\n', pos), content.size());
        if (eol - pos >= 16) held.insert(content.substr(pos, 16));
      }
      std::string lines;
      // A SIGKILL mid-claim leaves a newline-less tail; starting on a
      // fresh line keeps these claims parseable (the torn one stays
      // conservative garbage and its cell falls to the next resume).
      if (!content.empty() && content.back() != '\n') lines += '\n';
      for (const std::uint64_t hash : hashes) {
        const std::string hex = hash_hex(hash);
        if (!held.insert(hex).second) continue;
        won.push_back(hash);
        lines += hex + ' ' + std::to_string(shard) + '\n';
      }
      if (!won.empty()) append_durable(fd, lines);
    } catch (...) {
      ::close(fd);  // releases the fcntl lock
      throw;
    }
    ::close(fd);
    return won;
  }

 private:
  static std::string read_all(int fd) {
    std::string content;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      content.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0) throw std::runtime_error("campaign: claims read failed");
    return content;
  }

  static void append_durable(int fd, const std::string& line) {
    if (::lseek(fd, 0, SEEK_END) < 0) {
      throw std::runtime_error("campaign: claims seek failed");
    }
    std::size_t written = 0;
    while (written < line.size()) {
      const ssize_t n =
          ::write(fd, line.data() + written, line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("campaign: claims write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      throw std::runtime_error("campaign: claims fsync failed");
    }
  }

  std::string path_;
};

}  // namespace

std::string shard_journal_path(const std::string& base, std::size_t shard) {
  return base + ".shard" + std::to_string(shard) + ".jsonl";
}

std::string shard_claims_path(const std::string& base) {
  return base + ".claims";
}

void reset_campaign_claims(const ShardOptions& options) {
  if (options.journal_path.empty()) return;
  std::remove(shard_claims_path(options.journal_path).c_str());
  if (options.fresh) {
    for (std::size_t k = 0; k < options.n_shards; ++k) {
      std::remove(shard_journal_path(options.journal_path, k).c_str());
    }
  }
}

ShardWorkerReport run_campaign_shard(const CampaignSpec& spec,
                                     const ShardOptions& options,
                                     std::size_t shard) {
  if (options.journal_path.empty()) {
    throw std::invalid_argument("campaign: sharded run needs a journal path");
  }
  if (options.n_shards == 0 || shard >= options.n_shards) {
    throw std::invalid_argument("campaign: shard index out of range");
  }
  const std::vector<Evaluators> evaluators = resolve_evaluators(spec);

  // Resolution order, per shard: journal (EVERY shard's — the whole fleet's
  // finished work counts as resumed) -> claim -> memo cache -> compute.
  std::unordered_set<std::uint64_t> journaled;
  for (std::size_t k = 0; k < options.n_shards; ++k) {
    for (const auto& entry :
         read_campaign_journal(shard_journal_path(options.journal_path, k))) {
      journaled.insert(entry.hash);
    }
  }

  JournalWriter journal(shard_journal_path(options.journal_path, shard),
                        /*fresh=*/false);
  ClaimsFile claims(shard_claims_path(options.journal_path));
  CellCache& cache = CellCache::instance();

  ShardWorkerReport report;
  report.shard = shard;

  // Unique unresolved cells in spec order.
  std::vector<std::uint64_t> hashes(spec.cells.size());
  std::vector<bool> pending(spec.cells.size());
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    hashes[i] = spec.cells[i].content_hash();
    if (!seen.insert(hashes[i]).second) continue;
    if (journaled.count(hashes[i]) > 0) {
      ++report.cells_resumed;
      continue;
    }
    pending[i] = true;
  }

  std::mutex state_mutex;
  // Journal (then memoize) one won cell; a cache-resolved one took no time.
  auto record = [&](std::size_t i, std::string result, double seconds,
                    bool stolen, bool computed) {
    journal.append(spec.cells[i], hashes[i], result,
                   "\"shard\":" + std::to_string(shard) +
                       ",\"stolen\":" + (stolen ? "1" : "0") +
                       ",\"t_s\":" + format_param(seconds) + ",");
    if (computed) cache.insert(hashes[i], std::move(result));
    std::lock_guard<std::mutex> lock(state_mutex);
    ++(computed ? report.cells_computed : report.cells_from_cache);
    if (computed && stolen) {
      ++report.cells_stolen;
      obs::count("campaign.cells.stolen");
    }
  };
  // A unit's cells are claimed in one critical section. A won cell the memo
  // cache holds still lands in this shard's journal, so the merged journal
  // set replays the whole campaign on its own; only the rest are computed.
  auto claim = [&](const std::vector<std::size_t>& cells, bool stolen) {
    std::vector<std::uint64_t> unit_hashes;
    for (const std::size_t i : cells) unit_hashes.push_back(hashes[i]);
    const std::vector<std::uint64_t> won = claims.claim(unit_hashes, shard);
    std::vector<std::size_t> compute;
    for (const std::size_t i : cells) {
      std::string result;
      if (std::find(won.begin(), won.end(), hashes[i]) == won.end()) continue;
      if (cache.lookup(hashes[i], &result)) {
        record(i, std::move(result), 0.0, stolen, /*computed=*/false);
      } else {
        compute.push_back(i);
      }
    }
    return compute;
  };
  report.cells_owned = run_cells(
      spec, evaluators, pending, shard, options.n_shards, claim,
      [&](std::size_t i, std::string result, double seconds, bool stolen) {
        record(i, std::move(result), seconds, stolen, /*computed=*/true);
      });

  obs::count("campaign.cells.computed", report.cells_computed);
  obs::count("campaign.cells.resumed", report.cells_resumed);
  obs::count("campaign.cache.hits", report.cells_from_cache);
  return report;
}

ShardMergeReport merge_campaign_shards(const CampaignSpec& spec,
                                       const ShardOptions& options) {
  if (options.journal_path.empty()) {
    throw std::invalid_argument("campaign: merge needs a journal path");
  }
  ShardMergeReport merge;
  CampaignReport& report = merge.report;
  report.name = spec.name;
  report.cells_total = spec.cells.size();

  std::unordered_map<std::uint64_t, std::string> results;
  for (std::size_t k = 0; k < options.n_shards; ++k) {
    for (auto& entry :
         read_campaign_journal(shard_journal_path(options.journal_path, k))) {
      if (entry.stolen) ++merge.cells_stolen;
      if (entry.seconds > 0.0) {
        const std::size_t writer =
            entry.shard == JournalEntry::kNoShard ? k : entry.shard;
        obs::observe("campaign.shard" + std::to_string(writer) +
                         ".cell.seconds",
                     entry.seconds);
      }
      results.emplace(entry.hash, std::move(entry.result_json));
    }
  }

  // Spec order, exactly like the single-process report: when every cell is
  // covered, results_json() is byte-identical to an unsharded run.
  report.outcomes.resize(spec.cells.size());
  std::unordered_set<std::uint64_t> missing;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    CellOutcome& out = report.outcomes[i];
    out.spec = spec.cells[i];
    out.hash = spec.cells[i].content_hash();
    const auto it = results.find(out.hash);
    if (it != results.end()) {
      out.result_json = it->second;
      out.source = CellSource::kJournal;
      ++report.cells_resumed;
    } else if (missing.insert(out.hash).second) {
      ++merge.cells_missing;
    }
  }
  obs::count("campaign.shards", options.n_shards);
  obs::count("campaign.cells.merged", results.size());
  obs::count("campaign.cells.missing", merge.cells_missing);
  return merge;
}

// --- Built-in evaluators -------------------------------------------------

namespace {

Scenario scenario_from(const CellSpec& cell) {
  const std::string kind = cell.param("scenario", "water_tank");
  if (kind == "air") return air_scenario(cell.param_num("distance_m", 2.0));
  return water_tank_scenario(
      cell.param_num("depth_m", 0.05),
      cell.param_num("standoff_m", calib::kGainSetupStandoffM));
}

TagConfig tag_from(const CellSpec& cell) {
  return cell.param("tag", "std") == "mini" ? miniature_tag() : standard_tag();
}

std::string eval_gain(const CellSpec& cell) {
  const auto scenario = scenario_from(cell);
  const auto tag = tag_from(cell);
  const auto plan = FrequencyPlan::paper_default().truncated(
      static_cast<std::size_t>(cell.param_num("antennas", 8)));
  const std::size_t trials = cell_trials(cell);
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 9)));
  const auto results = run_gain_trials(scenario, tag, plan, trials, rng);
  const auto cib = summarize_cib(results);
  const auto baseline = summarize_baseline(results);
  JsonWriter w;
  w.begin_object();
  w.field("p10", cib.p10);
  w.field("p50", cib.p50);
  w.field("p90", cib.p90);
  w.field("baseline_p50", baseline.p50);
  w.field("trials", trials);
  w.end_object();
  return w.str();
}

std::string eval_range(const CellSpec& cell) {
  const auto tag = tag_from(cell);
  const auto plan = FrequencyPlan::paper_default().truncated(
      static_cast<std::size_t>(cell.param_num("antennas", 8)));
  const std::size_t trials = cell_trials(cell);
  const bool water = cell.param("medium", "air") == "water";
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 13)));
  const double max_m =
      water ? max_water_depth(tag, plan, trials, rng,
                              cell.param_num("max_search_m", 0.5))
            : max_air_range(tag, plan, trials, rng,
                            cell.param_num("max_search_m", 100.0));
  JsonWriter w;
  w.begin_object();
  w.field("max_m", max_m);
  w.field("trials", trials);
  w.end_object();
  return w.str();
}

std::vector<std::string> eval_waterfall(std::span<const FamilyCell> cells) {
  std::vector<SweepRun<WaterfallConfig>> runs;
  for (const FamilyCell& family_cell : cells) {
    const CellSpec& cell = *family_cell.spec;
    WaterfallConfig config;
    config.snr_points_db = {cell.param_num("snr_db", 30.0)};
    config.trials_per_point = cell_trials(cell);
    config.link.recovery = RecoveryPolicy::retries(
        static_cast<std::size_t>(cell.param_num("retries", 2)));
    // Same seed across SNR cells => same Rng::stream trial sub-streams: the
    // common-random-numbers coupling that keeps the waterfall monotone.
    Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 13)));
    runs.push_back({std::move(config), rng(), family_cell.track_base});
  }
  std::vector<std::string> results;
  for (const auto& points : run_ber_waterfalls(runs)) {
    const auto& p = points.front();
    JsonWriter w;
    w.begin_object();
    w.field("ber", p.ber);
    w.field("per", p.per);
    w.field("session_success", p.session_success_rate);
    w.field("mean_retries", p.mean_retries);
    w.field("trials", p.trials);
    w.end_object();
    results.push_back(w.str());
  }
  return results;
}

std::vector<std::string> eval_matrix(std::span<const FamilyCell> cells) {
  std::vector<SweepRun<MatrixConfig>> runs;
  for (const FamilyCell& family_cell : cells) {
    const CellSpec& cell = *family_cell.spec;
    MatrixConfig config;
    config.media = {{cell.param("medium", "water"),
                     cell.param_num("loss_db", 2.0)}};
    config.snr_points_db = {cell.param_num("snr_db", 30.0)};
    config.antenna_counts = {
        static_cast<std::size_t>(cell.param_num("antennas", 1))};
    config.trials_per_cell = cell_trials(cell);
    config.link.recovery = RecoveryPolicy::retries(
        static_cast<std::size_t>(cell.param_num("retries", 2)));
    Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 17)));
    runs.push_back({std::move(config), rng(), family_cell.track_base});
  }
  std::vector<std::string> results;
  for (const auto& matrix : run_session_matrices(runs)) {
    const auto& c = matrix.front();
    JsonWriter w;
    w.begin_object();
    w.field("success_rate", c.success_rate);
    w.field("mean_retries", c.mean_retries);
    w.field("recovered_by_retry", c.recovered_by_retry);
    w.field("trials", c.trials);
    w.end_object();
    results.push_back(w.str());
  }
  return results;
}

std::vector<std::string> eval_depth(std::span<const FamilyCell> cells) {
  std::vector<SweepRun<DepthSweepConfig>> runs;
  for (const FamilyCell& family_cell : cells) {
    const CellSpec& cell = *family_cell.spec;
    DepthSweepConfig config;
    config.depths_m = {cell.param_num("depth_m", 0.05)};
    config.trials_per_point = cell_trials(cell);
    config.link.num_antennas =
        static_cast<std::size_t>(cell.param_num("antennas", 10));
    config.link.recovery = RecoveryPolicy::retries(
        static_cast<std::size_t>(cell.param_num("retries", 1)));
    Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 29)));
    runs.push_back({std::move(config), rng(), family_cell.track_base});
  }
  std::vector<std::string> results;
  for (const auto& curve : run_depth_sweeps(runs)) {
    const auto& p = curve.front();
    JsonWriter w;
    w.begin_object();
    w.field("loss_db", p.medium_loss_db);
    w.field("success_rate", p.success_rate);
    w.field("mean_retries", p.mean_retries);
    w.end_object();
    results.push_back(w.str());
  }
  return results;
}

std::vector<std::string> eval_burst_retry(std::span<const FamilyCell> cells) {
  std::vector<SweepItem> items;
  for (const FamilyCell& family_cell : cells) {
    const CellSpec& cell = *family_cell.spec;
    ImpairedLinkConfig link;
    link.snr_db = cell.param_num("snr_db", 30.0);
    link.impair.bursts = {
        .rate_hz = cell.param_num("burst_rate_hz", 150.0),
        .mean_duration_s = cell.param_num("burst_duration_s", 5e-4),
        .depth_db = cell.param_num("burst_depth_db", 40.0)};
    link.recovery = RecoveryPolicy::retries(
        static_cast<std::size_t>(cell.param_num("retries", 0)));
    // Trial t runs its session on Rng::stream(seed, t).
    items.push_back(
        {.link = std::move(link),
         .stream_base = static_cast<std::uint64_t>(cell.param_num("seed", 23)),
         .trials = cell_trials(cell),
         .track_base = family_cell.track_base});
  }
  const std::vector<SweepTally> tallies = run_sweep_items(items);
  std::vector<std::string> results;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const double n = static_cast<double>(items[k].trials);
    JsonWriter w;
    w.begin_object();
    w.field("success", static_cast<double>(tallies[k].successes) / n);
    w.field("timeouts", static_cast<double>(tallies[k].timeouts) / n);
    w.field("backoff_ms", 1e3 * tallies[k].backoff_s / n);
    w.field("trials", items[k].trials);
    w.end_object();
    results.push_back(w.str());
  }
  return results;
}

}  // namespace

void register_builtin_cell_evaluators() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_cell_evaluator("gain", eval_gain);
    register_cell_evaluator("range", eval_range);
    register_batch_evaluator("waterfall", eval_waterfall);
    register_batch_evaluator("matrix", eval_matrix);
    register_batch_evaluator("depth", eval_depth);
    register_batch_evaluator("burst_retry", eval_burst_retry);
  });
}

// --- Figure campaigns ----------------------------------------------------

namespace {

/// The Fig. 9 water-tank gain cell for `antennas` — the SAME spec (hence
/// hash) wherever it appears, which is what lets Fig. 13's anchors reuse
/// Fig. 9's results through the memo cache.
CellSpec water_gain_cell(std::size_t antennas, std::size_t trials) {
  CellSpec cell("gain");
  cell.set("scenario", "water_tank")
      .set("depth_m", 0.05)
      .set("standoff_m", calib::kGainSetupStandoffM)
      .set("tag", "std")
      .set("antennas", antennas)
      .set("trials", trials)
      .set("seed", std::size_t{9});
  return cell;
}

CellSpec range_cell(const char* tag, const char* medium, std::size_t antennas,
                    std::size_t trials, double max_search_m) {
  CellSpec cell("range");
  cell.set("tag", tag)
      .set("medium", medium)
      .set("antennas", antennas)
      .set("trials", trials)
      .set("max_search_m", max_search_m)
      .set("seed", std::size_t{13});
  return cell;
}

}  // namespace

CampaignSpec fig9_campaign(std::size_t gain_trials) {
  CampaignSpec spec;
  spec.name = "fig9";
  for (std::size_t n = 1; n <= 10; ++n) {
    spec.cells.push_back(water_gain_cell(n, gain_trials));
  }
  return spec;
}

CampaignSpec fig13_campaign(std::size_t gain_trials, std::size_t range_trials) {
  CampaignSpec spec;
  spec.name = "fig13";
  for (std::size_t n = 1; n <= 8; ++n) {
    spec.cells.push_back(range_cell("std", "air", n, range_trials, 80.0));
    spec.cells.push_back(range_cell("mini", "air", n, range_trials, 20.0));
    spec.cells.push_back(range_cell("std", "water", n, range_trials, 0.5));
    spec.cells.push_back(range_cell("mini", "water", n, range_trials, 0.5));
  }
  // Water-tank gain anchors shared verbatim with fig9 (same hash): when
  // both campaigns run in one process, these resolve from the memo cache.
  spec.cells.push_back(water_gain_cell(1, gain_trials));
  spec.cells.push_back(water_gain_cell(8, gain_trials));
  return spec;
}

CampaignSpec x13_campaign(std::size_t trials) {
  CampaignSpec spec;
  spec.name = "x13";
  for (const double snr : {30.0, 24.0, 18.0, 12.0, 8.0, 4.0, 0.0}) {
    CellSpec cell("waterfall");
    cell.set("snr_db", snr)
        .set("trials", trials)
        .set("retries", std::size_t{2})
        .set("seed", std::size_t{13});
    spec.cells.push_back(cell);
  }
  const struct {
    const char* name;
    double loss_db;
  } media[] = {{"water", 2.0}, {"muscle", 6.0}, {"gastric", 9.0}};
  for (const auto& medium : media) {
    for (const double snr : {30.0, 20.0, 10.0, 0.0}) {
      for (const std::size_t antennas : {1u, 3u, 10u}) {
        CellSpec cell("matrix");
        cell.set("medium", medium.name)
            .set("loss_db", medium.loss_db)
            .set("snr_db", snr)
            .set("antennas", antennas)
            .set("trials", trials)
            .set("retries", std::size_t{2})
            .set("seed", std::size_t{17});
        spec.cells.push_back(cell);
      }
    }
  }
  for (const std::size_t retries : {0u, 1u, 2u, 3u}) {
    CellSpec cell("burst_retry");
    cell.set("retries", retries)
        .set("snr_db", 30.0)
        .set("burst_rate_hz", 150.0)
        .set("burst_duration_s", 5e-4)
        .set("burst_depth_db", 40.0)
        .set("trials", std::size_t{200})
        .set("seed", std::size_t{23});
    spec.cells.push_back(cell);
  }
  for (const double depth : {0.01, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15}) {
    CellSpec cell("depth");
    cell.set("depth_m", depth)
        .set("antennas", std::size_t{10})
        .set("retries", std::size_t{1})
        .set("trials", trials)
        .set("seed", std::size_t{29});
    spec.cells.push_back(cell);
  }
  return spec;
}

}  // namespace ivnet
