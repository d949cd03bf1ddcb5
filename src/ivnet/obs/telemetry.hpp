// Rolling-window live telemetry: the "what is happening RIGHT NOW" layer
// the cumulative MetricsRegistry (obs/metrics.hpp) cannot answer.
//
// A cumulative histogram tells you the p99 since process start; an
// operator watching `ivnet serve` ride out an MMPP load surge needs the
// p99 over the last second. The windowed types here are built from N
// rotating fixed-bucket EPOCHS: time is divided into epoch_s-wide slots,
// each observation lands in the epoch covering its timestamp, and a
// window query merges the epochs spanning the last W seconds into one
// coherent Histogram::View (so quantiles reuse the exact interpolation
// the registry snapshots use, via Histogram::quantile_of). Epochs that
// fall out of the retained ring are recycled in place — memory is fixed
// at construction no matter how long the service runs.
//
// Clock discipline: every ingest carries a caller-supplied timestamp in
// SECONDS on an arbitrary monotone clock. The service feeds either wall
// seconds since its own epoch (live operation) or the request's offered
// schedule time (sim clock) — with the sim clock, counts, rates, and
// exemplar identities in a window are pure functions of the schedule, so
// the emitted time-series is reproducible run-to-run. Latency VALUES are
// wall measurements either way and sit outside the byte-stability
// contract (the formatting is fixed; the numbers are physics).
//
// Threading: one mutex per windowed object (same policy as Histogram).
// Ingest is O(1) under the lock; a view merge is O(epochs x buckets).
// The service's ingest path takes three of these locks per request —
// bench_service gates the whole stack at <= 3% CPU time per request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ivnet/obs/metrics.hpp"

namespace ivnet::obs {

/// Event count over rotating epochs. add(t_s) attributes to the epoch
/// covering t_s; totals/rates are queried over a trailing window.
class WindowedCounter {
 public:
  /// `epoch_s` is the bucket width in seconds; `epochs` the ring length —
  /// the counter retains the trailing epochs * epoch_s seconds.
  explicit WindowedCounter(double epoch_s = 1.0, std::size_t epochs = 90);

  /// Attribute `n` events to time `t_s`. Timestamps ahead of everything
  /// seen so far advance the ring (recycling expired epochs); timestamps
  /// older than the retained span are dropped. Thread-safe.
  void add(double t_s, std::uint64_t n = 1);

  /// Events attributed to (now_s - window_s, now_s]. Epochs are merged
  /// whole: the window is rounded up to the epoch grid, so a 1 s window
  /// with 1 s epochs covers exactly the current epoch. Thread-safe.
  std::uint64_t total_over(double window_s, double now_s) const;

  /// total_over / window_s (events per second).
  double rate_over(double window_s, double now_s) const;

  double epoch_s() const { return epoch_s_; }
  std::size_t epochs() const { return counts_.size(); }

 private:
  const double epoch_s_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;  // slot = epoch index % ring size
  std::vector<std::int64_t> epoch_of_;  // absolute epoch in the slot, -1 empty
  std::int64_t latest_epoch_ = -1;      // newest epoch ever ingested
};

/// Fixed-bucket histogram over rotating epochs. Each epoch holds its own
/// bucket-count row plus min/max; a window query merges the covering
/// epochs into a Histogram::View, so every read is coherent and every
/// quantile goes through Histogram::quantile_of — the same pure function
/// the cumulative registry snapshots use.
class WindowedHistogram {
 public:
  /// Empty `bounds` = Histogram::default_bounds() (the 1-2-5 ladder).
  explicit WindowedHistogram(std::vector<double> bounds = {},
                             double epoch_s = 1.0, std::size_t epochs = 90);

  /// Attribute an observation to time `t_s` (same rotation rules as
  /// WindowedCounter::add). Thread-safe.
  void observe(double t_s, double value);

  /// One coherent merged view of the epochs covering
  /// (now_s - window_s, now_s]: counts summed, min/max folded, all under
  /// a single lock acquisition. Thread-safe.
  Histogram::View view_over(double window_s, double now_s) const;

  /// Histogram::quantile_of on a fresh view_over — one lock, pure math.
  double quantile_over(double window_s, double now_s, double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  double epoch_s() const { return epoch_s_; }
  std::size_t epochs() const { return epochs_; }

 private:
  struct Epoch {
    std::int64_t epoch = -1;  // absolute epoch index, -1 = empty
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1
  };
  void reset_epoch(Epoch& e, std::int64_t epoch) const;

  const std::vector<double> bounds_;
  const double epoch_s_;
  const std::size_t epochs_;
  mutable std::mutex mutex_;
  std::vector<Epoch> ring_;
  std::int64_t latest_epoch_ = -1;
};

/// Full identity of one slow request: everything needed to re-execute it
/// deterministically (responses are pure functions of (request, seed)),
/// plus the captured wall timings and the response hash the replay must
/// reproduce. Kept POD-ish so stores/dumps stay allocation-light.
struct Exemplar {
  static constexpr std::size_t kMaxStages = 4;

  // -- request identity (svc::Request fields) ----------------------------
  std::uint32_t kind = 0;
  std::uint32_t trials = 0;
  std::uint32_t antennas = 0;
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  double snr_db = 0.0;
  double medium_loss_db = 0.0;

  // -- captured timings ---------------------------------------------------
  double t_s = 0.0;           ///< completion time on the telemetry clock
  double queue_wait_s = 0.0;  ///< wall: accept -> worker pickup
  double service_s = 0.0;     ///< wall: execution on the worker
  /// Per-stage wall spans (kPlan: the optimize call; decode/inventory: one
  /// span per trial session, trials beyond kMaxStages folded into the last).
  double stage_s[kMaxStages] = {0.0, 0.0, 0.0, 0.0};
  std::uint32_t stages = 0;

  // -- the reproducibility anchor ----------------------------------------
  std::uint64_t response_hash = 0;  ///< svc::response_hash of the response

  double total_latency_s() const { return queue_wait_s + service_s; }
};

/// Bounded store of the K slowest requests per epoch window. Same epoch
/// rotation as the windowed metrics, so memory is fixed at
/// epochs * k_per_epoch exemplars and an incident's evidence survives for
/// the retained span, not until someone polls.
class ExemplarStore {
 public:
  explicit ExemplarStore(std::size_t k_per_epoch = 4, double epoch_s = 1.0,
                         std::size_t epochs = 90);

  /// Offer an exemplar for the epoch covering exemplar.t_s. Kept iff it is
  /// among the k slowest (by total latency) of its epoch. Thread-safe.
  void offer(const Exemplar& exemplar);

  /// Every retained exemplar, slowest first (ties broken by id, so equal
  /// ingests produce identical ordering). Thread-safe.
  std::vector<Exemplar> slowest() const;

  std::size_t size() const;
  std::size_t k_per_epoch() const { return k_per_epoch_; }

 private:
  struct Epoch {
    std::int64_t epoch = -1;
    std::vector<Exemplar> items;  // unordered, <= k_per_epoch
  };

  const std::size_t k_per_epoch_;
  const double epoch_s_;
  mutable std::mutex mutex_;
  std::vector<Epoch> ring_;
  std::int64_t latest_epoch_ = -1;
};

/// Rolling-window anomaly verdict over the last second of service life.
struct TelemetryAnomaly {
  bool shed_storm = false;       ///< shed rate over 1 s above threshold
  bool queue_saturated = false;  ///< queue-wait p99 over 1 s above threshold
  bool any() const { return shed_storm || queue_saturated; }
};

struct TelemetryConfig {
  double epoch_s = 1.0;
  /// Ring length; retained span = epochs * epoch_s. The default covers the
  /// 60 s reporting window with headroom.
  std::size_t epochs = 90;
  std::size_t exemplars_per_epoch = 4;
  /// Anomaly thresholds over the trailing 1 s window. <= 0 disables the
  /// detector.
  double shed_storm_rate_rps = 50.0;
  double queue_saturated_p99_s = 0.5;
};

/// The service-facing bundle: windowed throughput/shed counters, windowed
/// queue-wait / service-time histograms, and the exemplar store, with a
/// byte-stable JSON emitter for the periodic time-series and threshold
/// detectors for the flight-recorder triggers.
class ServiceTelemetry {
 public:
  explicit ServiceTelemetry(TelemetryConfig config = {});

  void on_accept(double t_s);
  void on_shed(double t_s);
  /// One completed request: latencies attributed to exemplar.t_s, the
  /// exemplar offered to the per-window store.
  void on_complete(const Exemplar& exemplar);

  /// One time-series record for time now_s — {"t_s":..,"windows":[...]}
  /// with one entry per window in {1, 10, 60} s: accepted/completed/shed
  /// counts, throughput and shed rates, queue-wait and service-time
  /// p50/p99. Field order and number formatting are fixed (common/json),
  /// so equal ingests emit identical bytes.
  std::string sample_json(double now_s) const;

  /// One exemplar object per line (JSONL): the format `ivnet
  /// replay-exemplar` consumes. Byte-stable for equal ingests.
  std::string exemplars_jsonl() const;

  std::vector<Exemplar> exemplars() const { return exemplars_.slowest(); }

  TelemetryAnomaly check_anomalies(double now_s) const;

  const TelemetryConfig& config() const { return config_; }

  // Direct access for tests and custom reporters.
  WindowedCounter& accepted() { return accepted_; }
  WindowedCounter& completed() { return completed_; }
  WindowedCounter& shed() { return shed_; }
  WindowedHistogram& queue_wait() { return queue_wait_; }
  WindowedHistogram& service_time() { return service_time_; }

 private:
  TelemetryConfig config_;
  WindowedCounter accepted_;
  WindowedCounter completed_;
  WindowedCounter shed_;
  WindowedHistogram queue_wait_;
  WindowedHistogram service_time_;
  ExemplarStore exemplars_;
};

/// Serialize one exemplar as a single-line JSON object (the JSONL record
/// format). seed and response_hash are emitted as decimal/hex STRINGS so
/// 64-bit identity survives the double-typed flat scanner on the way back
/// in (see parse_exemplar_line).
std::string exemplar_json(const Exemplar& exemplar);

/// Parse one exemplar_json line back. Returns false when a required field
/// is missing (blank lines, headers) or malformed: id, kind, trials and
/// antennas must be decimal integers that fit their fields, seed and
/// response_hash decimal strings that fit 64 bits, and snr_db and
/// medium_loss_db finite numbers (replay feeds both to the request), each
/// with nothing else in the value. Tolerates surrounding whitespace.
bool parse_exemplar_line(std::string_view line, Exemplar& out);

}  // namespace ivnet::obs
