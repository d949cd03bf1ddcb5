// Shared plumbing of the benchmark driver: the run context, the in-memory
// span log, the pass loop, and the raw-result record that run.py turns into
// the reported metrics.
//
// The driver only times calls it makes itself through the library's public
// API. Spans wrap those calls (name, start, end, parent, request/trial id,
// work units); they live in memory and are written out once, when the run
// ends. Untraced runs keep the log disabled: a span then only reads the
// clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ivnet/obs/metrics.hpp"

namespace perfbench {

/// Seconds on the steady clock since the driver started.
double now_s();

/// Peak resident set of this process [MiB].
double peak_rss_mib();

/// SplitMix64 step: mixes a value into a 64-bit digest or derives a seed.
std::uint64_t mix64(std::uint64_t x);

/// Seed for input `index` of `stream` under the workload seed. Kept below
/// 2^53 so it survives the campaign engine's double-valued cell params.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// FNV-1a 64 of a byte string (result-JSON digests).
std::uint64_t fnv1a(const std::string& text);

/// Span log. Spans must be opened and closed on the driver's main thread.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;       ///< trial / request / round id (0 if none)
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
    double t0_s = 0.0;
    double t1_s = 0.0;
    double work = 0.0;          ///< units of work the span covers
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span (no-op returning -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t id, double work);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span that also times its scope, so probes read their measurement
/// from the same interval the span records.
class Timed {
 public:
  Timed(SpanLog& log, const char* name, double work = 1.0,
        std::uint64_t id = 0)
      : log_(log), index_(log.open(name, id, work)), t0_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (idempotent) and returns its duration [s].
  double stop() {
    if (!stopped_) {
      elapsed_ = now_s() - t0_;
      log_.close(index_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  SpanLog& log_;
  std::int64_t index_;
  double t0_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
};

/// Everything a run reports back to run.py (see write_raw for the format).
struct Report {
  std::vector<double> setup_s;     ///< set-up samples of measured passes
  std::vector<double> rate_per_s;  ///< workload throughput, one per pass
  /// Latency samples [ms] of closed-loop workloads, one list per pass.
  std::vector<std::vector<double>> latency_ms;
  /// Open-loop requests, one list per pass: due and completion times [s]
  /// (NaN = refused); run.py turns them into latencies from the due time.
  std::vector<std::vector<double>> due_s;
  std::vector<std::vector<double>> done_s;
  double tail_percentile = 0.0;  ///< target tail (0 = worst sample)
  double quality = 0.0;
  /// Per-pass cost (lower is better) of untraced and traced passes, for
  /// obs.overhead_pct. Only traced runs fill traced_cost.
  std::vector<double> untraced_cost;
  std::vector<double> traced_cost;
  std::map<std::string, double> named;  ///< issue-named end-to-end values
  std::map<std::string, double> layer;  ///< per-layer metrics (traced runs)
  std::map<std::string, std::string> knobs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  /// Records one output check over `n` operations of which `bad` failed.
  void check(const std::string& what, bool ok, std::size_t n = 1,
             std::size_t bad = 0);
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string tmp_dir;  ///< scratch files (journals, plan stores)
  std::size_t nproc = 1;
  SpanLog spans;
  ivnet::obs::MetricsRegistry registry;  ///< installed only while tracing
  Report report;

  /// Fresh .jsonl path under tmp_dir; any file already there is removed.
  std::string tmp_path(const std::string& stem);
};

/// Installs the metrics registry and enables spans for the scope.
class TraceScope {
 public:
  TraceScope(Context& ctx, bool on);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Context& ctx_;
  bool on_;
};

/// Set-ups per pass where setting up is cheap (sub-millisecond): each is
/// one setup_s sample, so the reported median is not one noisy reading.
inline constexpr std::size_t kSetupRepeats = 5;

/// Outcome of one pass of a workload.
struct PassResult {
  std::vector<double> setup_s;  ///< one sample per set-up the pass ran
  double cost = 0.0;  ///< lower is better; used for the tracing overhead
  std::uint64_t digest = 0;
};

/// kWarmup passes run first and are not measured; kMeasured passes feed
/// the end-to-end samples; kTraced passes run with spans and the registry.
enum class PassKind { kWarmup, kMeasured, kTraced };

/// Runs `warmup_passes` warm-up passes, then passes until `ctx.seconds`
/// have elapsed and at least `min_passes` measured passes ran. Traced runs
/// alternate measured and traced passes (each at least min_passes) so the
/// overhead compares like with like. Records setup_s, the cost lists, and
/// checks that every pass produced the same digest.
void run_passes(Context& ctx, std::size_t warmup_passes,
                std::size_t min_passes,
                const std::function<PassResult(PassKind)>& pass);

/// Clears the campaign memo (every pass starts cold).
void clear_cell_cache();

/// Counter value in the registry (0 when absent).
std::uint64_t counter(Context& ctx, const char* name);

/// Nearest-rank quantile of `values` (q in [0, 1]); NaN when empty.
double nearest_rank(std::vector<double> values, double q);

void run_sweep(Context& ctx);
void run_serve(Context& ctx);
void run_vitals(Context& ctx);
void run_plan(Context& ctx);

/// The per-layer probe suite (traced runs): times each layer's public
/// calls on inputs generated from the run seed and fills report.layer.
void run_layer_probes(Context& ctx);

}  // namespace perfbench
