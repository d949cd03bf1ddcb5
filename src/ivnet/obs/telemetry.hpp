// Rolling-window live telemetry: the "what is happening RIGHT NOW" layer
// the cumulative MetricsRegistry (obs/metrics.hpp) cannot answer.
//
// A cumulative histogram tells you the p99 since process start; an
// operator watching `ivnet serve` ride out an MMPP load surge needs the
// p99 over the last second. ServiceTelemetry keeps one ring of EPOCHS:
// time is divided into epoch_s-wide slots, and each epoch holds everything
// ingested at a timestamp it covers — accepted and shed counts, one
// queue-wait and one service-time bucket row (Histogram::View; the
// completion count is their count), and the epoch's K slowest requests as
// exemplars. A window query merges the epochs spanning the last W seconds
// into one TelemetryWindow, so quantiles reuse the exact interpolation the
// registry snapshots use (Histogram::quantile_of). An epoch's slot is
// recycled when a newer epoch needs it, so memory stays bounded by the
// ring no matter how long the service runs.
//
// Retention: the ring has one newest epoch, the newest ingest of any kind.
// An ingest kEpochs or more epochs older than it is dropped.
//
// Clock discipline: every ingest carries a caller-supplied timestamp in
// SECONDS. The service feeds each request's offered schedule time, so the
// counts and rates in a window are pure functions of the schedule and the
// emitted time-series is reproducible run-to-run. Latency VALUES are wall
// measurements, and so is which requests an epoch keeps as its slowest
// exemplars; both sit outside the byte-stability contract (the formatting
// is fixed; the numbers are physics).
//
// Threading: one mutex guards the ring. Each ingest takes it once, so an
// accepted-and-completed request costs two acquisitions (on_accept,
// on_complete); a window merge is O(epochs x buckets) under one
// acquisition, so every window read is coherent. bench_service gates the
// whole stack at <= 3% CPU time per request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ivnet/obs/metrics.hpp"

namespace ivnet::obs {

/// Wall spans of a request's execution stages (svc::execute_request):
/// kPlan records one stage (the optimize call); decode/inventory record one
/// per trial session, trials beyond kMax folded into the last.
struct StageSpans {
  static constexpr std::size_t kMax = 4;
  double span_s[kMax] = {0.0, 0.0, 0.0, 0.0};
  std::uint32_t count = 0;

  void add(double s) {
    if (count < kMax) {
      span_s[count++] = s;
    } else {
      span_s[kMax - 1] += s;
    }
  }
};

/// Full identity of one slow request: everything needed to re-execute it
/// deterministically (responses are pure functions of (request, seed)),
/// plus the captured wall timings and the response hash the replay must
/// reproduce. Kept POD-ish so the ring and dumps stay allocation-light.
struct Exemplar {
  // -- request identity (svc::Request fields) ----------------------------
  std::uint32_t kind = 0;
  std::uint32_t trials = 0;
  std::uint32_t antennas = 0;
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  double snr_db = 0.0;
  double medium_loss_db = 0.0;

  // -- captured timings ---------------------------------------------------
  double t_s = 0.0;           ///< the request's offered schedule time
  double queue_wait_s = 0.0;  ///< wall: accept -> worker pickup
  double service_s = 0.0;     ///< wall: execution on the worker
  StageSpans stages;

  // -- the reproducibility anchor ----------------------------------------
  std::uint64_t response_hash = 0;  ///< svc::response_hash of the response

  double total_latency_s() const { return queue_wait_s + service_s; }
};

/// The ingests of the epochs one trailing window covers, merged under one
/// lock acquisition.
struct TelemetryWindow {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  Histogram::View queue_wait;    ///< wall seconds; its count = completions
  Histogram::View service_time;  ///< wall seconds; same count
  std::uint64_t completed() const { return queue_wait.count; }
};

/// The bucket ladder of every TelemetryWindow latency row (10 us .. 10 s,
/// 1-2-5): pass it to Histogram::quantile_of with the row.
const std::vector<double>& latency_bounds();

/// Rolling-window anomaly verdict over the last second of service life.
struct TelemetryAnomaly {
  bool shed_storm = false;       ///< shed rate over 1 s at the threshold
  bool queue_saturated = false;  ///< queue-wait p99 over 1 s at the threshold
  bool any() const { return shed_storm || queue_saturated; }
};

/// The service-facing telemetry: the epoch ring, a byte-stable JSON emitter
/// for the periodic time-series, and the anomaly detectors behind the
/// flight recorder's anomaly events.
class ServiceTelemetry {
 public:
  /// Ring length; retained span = kEpochs * epoch_s. Covers the 60 s
  /// reporting window with headroom.
  static constexpr std::size_t kEpochs = 90;
  /// Slowest requests each epoch keeps as exemplars.
  static constexpr std::size_t kExemplarsPerEpoch = 4;
  /// Detector thresholds over the trailing 1 s window.
  static constexpr double kShedStormRps = 50.0;
  static constexpr double kQueueSaturatedP99S = 0.5;

  /// `epoch_s` is the epoch width in seconds (<= 0 means 1 s).
  explicit ServiceTelemetry(double epoch_s = 1.0);

  void on_accept(double t_s);
  void on_shed(double t_s);
  /// One completed request, in one critical section: its latencies and its
  /// exemplar go to the epoch of exemplar.t_s, then the detectors run over
  /// the trailing 1 s window at exemplar.t_s. An episode starts when a
  /// completion finds them anomalous after a calm one (or none) and ends
  /// when a completion finds them calm. Returns the verdict when this
  /// completion starts an episode, else a calm one.
  TelemetryAnomaly on_complete(const Exemplar& exemplar);

  /// Everything attributed to (now_s - window_s, now_s]. Epochs are merged
  /// whole: the window is rounded up to the epoch grid (at most kEpochs),
  /// so a 1 s window with 1 s epochs covers exactly the current epoch; at
  /// an exact epoch boundary the window ends with the epoch that just
  /// closed, so grid-aligned samplers never read an empty fresh epoch.
  TelemetryWindow window(double window_s, double now_s) const;

  /// One time-series record for time now_s — {"t_s":..,"windows":[...]}
  /// with one entry per window in {1, 10, 60} s: accepted/completed/shed
  /// counts, throughput and shed rates, queue-wait and service-time
  /// p50/p99. Field order and number formatting are fixed (common/json),
  /// so equal ingests emit identical bytes.
  std::string sample_json(double now_s) const;

  /// Every retained exemplar, slowest first (ties broken by id, so equal
  /// ingests produce identical ordering).
  std::vector<Exemplar> exemplars() const;

  /// One exemplar object per line (JSONL): the format `ivnet
  /// replay-exemplar` consumes. Byte-stable for equal ingests.
  std::string exemplars_jsonl() const;

  /// Anomaly episodes started so far.
  std::uint64_t anomaly_episodes() const;

 private:
  struct Epoch {
    std::int64_t epoch = -1;  ///< absolute epoch index, -1 = never used
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    Histogram::View queue_wait;
    Histogram::View service_time;
    std::vector<Exemplar> slowest;  ///< unordered, <= kExemplarsPerEpoch
  };

  /// The epoch covering t_s, its slot recycled when it holds an older one;
  /// null when t_s falls kEpochs or more behind the newest ingest.
  /// Caller holds mutex_.
  Epoch* ingest_epoch(double t_s);
  /// window() without the lock. Caller holds mutex_.
  TelemetryWindow merge(double window_s, double now_s) const;

  const double epoch_s_;
  mutable std::mutex mutex_;
  std::vector<Epoch> ring_;         // guarded by mutex_; slot = epoch % kEpochs
  std::int64_t latest_epoch_ = -1;  // guarded by mutex_; newest ingest
  bool anomalous_ = false;          // guarded by mutex_; inside an episode
  std::uint64_t episodes_ = 0;      // guarded by mutex_
};

/// Serialize one exemplar as a single-line JSON object (the JSONL record
/// format). seed and response_hash are emitted as decimal STRINGS so
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
