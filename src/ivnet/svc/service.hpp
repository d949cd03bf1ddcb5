// Always-on inventory service: the request/response front-end over the
// simulation stack.
//
// Every workload in this repo used to be a batch bench or campaign; the
// paper's reader, though, is a persistent per-patient device serving a
// stream of decode / inventory / re-plan requests. InventoryService is that
// serving shape:
//
//   submit() --> bounded lock-free MPMC ring (svc/mpmc_queue.hpp)
//            --> fixed worker pool (dedicated threads; each decode/inventory
//                trial is one run_impaired_link_session)
//            --> completion sink (one std::function installed at
//                construction)
//
// Shedding policy: submit() never blocks. A full ring rejects the request
// (returns false, counts svc.rejected) — open-loop load beyond saturation
// sheds at the front door instead of growing an unbounded backlog. Submits
// after stop() are refused and counted separately (svc.rejected.stopped),
// so "rejected" always means "shed by the bounded queue".
//
// Shutdown protocol (deterministic drain): stop() closes the front door,
// releases one shutdown credit per worker on the queue semaphore, and
// joins. A worker treats an empty pop as a shutdown credit ONLY once
// stop() has set the stopping flag; before that an empty pop just means a
// producer is mid-publish (see mpmc_queue.hpp) and the worker retries, so
// the pool can never shrink mid-run. Every request accepted before stop()
// is executed before its worker exits. After the join, stop() drains any
// element a racing submit slipped past the closed door and zeroes
// svc.inflight. stop() is idempotent; the destructor calls it.
//
// Determinism: a response is a pure function of the request fields and the
// service's link-config template — worker count, queue depth, and arrival
// timing never change response bytes. Trial t of a request runs
// run_impaired_link_session on Rng::stream(seed, t), so a decode request's
// outcome is bitwise what that loop gives outside the service.
// determinism_test pins the service-mode metrics snapshot (counters +
// sim-valued histograms) byte-identical across reruns and across 1/2/8
// workers; only wall-time-valued metrics (svc.queue_wait, svc.service_time)
// and scheduling-dependent gauges are outside that contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

#include "ivnet/impair/link_session.hpp"
#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/svc/mpmc_queue.hpp"

namespace ivnet::obs {
class ServiceTelemetry;
class FlightRecorder;
}  // namespace ivnet::obs

namespace ivnet::svc {

enum class RequestKind : std::uint8_t {
  kDecode = 0,     ///< independent single-tag sessions (trials of them)
  kInventory = 1,  ///< adaptive-Q inventory dialogues (heavier recovery)
  kPlan = 2,       ///< small frequency-plan optimization (Eq. 10 search)
};

/// One service request. POD so it travels through the MPMC ring by value.
struct Request {
  RequestKind kind = RequestKind::kDecode;
  std::uint16_t antennas = 1;
  std::uint32_t trials = 1;          ///< sessions to run (decode/inventory)
  std::uint64_t id = 0;              ///< caller correlation id
  std::uint64_t seed = 0;            ///< Rng::stream base for the trials
  double snr_db = 20.0;
  double medium_loss_db = 0.0;
  /// Offered (schedule) time of the arrival in seconds — the sim-clock
  /// timestamp telemetry attributes this request to when the service runs
  /// with TelemetryClock::kSim. Stamped by generate_schedule(); ignored in
  /// wall-clock mode.
  double offered_t_s = 0.0;
  /// Stamped by submit(); queue wait is measured from this instant.
  std::chrono::steady_clock::time_point accepted_at{};
};

/// One completed request, handed to the completion sink.
struct Response {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kDecode;
  std::uint32_t trials = 0;
  std::uint32_t succeeded = 0;      ///< CRC-clean sessions (kPlan: 1)
  double sim_elapsed_s = 0.0;       ///< summed simulated air time
  double plan_score = 0.0;          ///< kPlan: objective of the winner
  double queue_wait_s = 0.0;        ///< wall: accept -> worker pickup
  double service_s = 0.0;           ///< wall: execution on the worker
};

/// Which clock stamps telemetry ingests (windows, exemplars, flight
/// events). kWall uses wall seconds since service construction — the live
/// operations view. kSim uses each request's offered_t_s — with a
/// materialized schedule, window counts and exemplar identities become
/// pure functions of the schedule (reproducible run-to-run); latency
/// VALUES inside the windows are wall measurements either way.
enum class TelemetryClock : std::uint8_t { kWall = 0, kSim = 1 };

struct ServiceConfig {
  std::size_t workers = 4;
  std::size_t queue_depth = 256;  ///< rounded up to a power of two
  /// Link template; snr_db / num_antennas / medium_loss_db and the
  /// kind-specific recovery come from each request (link_config_for).
  ImpairedLinkConfig link;
  /// Optional live-telemetry bundle (obs/telemetry.hpp). Not owned; must
  /// outlive the service. Null = zero telemetry work on the hot path.
  obs::ServiceTelemetry* telemetry = nullptr;
  /// Optional flight recorder (obs/flight_recorder.hpp). Not owned; ring 0
  /// is the submit path, ring 1 + w is worker w — size it with
  /// workers + 1 rings. Null = no events recorded.
  obs::FlightRecorder* flight = nullptr;
  TelemetryClock telemetry_clock = TelemetryClock::kWall;
  /// Journal backing the kPlan plan store (sim/planner plan_frequencies):
  /// identical (antennas, seed) re-plans are memo hits either way, and a
  /// non-empty path makes them survive process restarts. Empty = in-memory
  /// memoization only.
  std::string plan_journal_path;
};

/// The exact per-request link config a worker executes — exposed so tests
/// can replay a request through run_impaired_link_session and compare.
ImpairedLinkConfig link_config_for(const ServiceConfig& config,
                                   const Request& request);

/// Order-independent per-response fingerprint: a SplitMix64 chain over
/// (id, kind, trials, succeeded, sim_elapsed bits, plan_score bits) — the
/// payload fields that are pure functions of (request, seed). Wall timings
/// are excluded. XORing these across responses gives the load-harness
/// digest; a single hash is the reproducibility anchor `ivnet
/// replay-exemplar` checks.
std::uint64_t response_hash(const Response& response);

/// Wall spans of the execution stages of one request, captured by
/// execute_request: kPlan records one stage (the optimize call);
/// decode/inventory record one per trial session, trials beyond kMax folded
/// into the last.
struct StageTimings {
  static constexpr std::size_t kMax = 4;
  double stage_s[kMax] = {0.0, 0.0, 0.0, 0.0};
  std::uint32_t count = 0;

  void add(double s) {
    if (count < kMax) {
      stage_s[count++] = s;
    } else {
      stage_s[kMax - 1] += s;
    }
  }
};

/// Flight-recorder context for execute_request: when `flight` is set, the
/// executor emits stage-enter/exit spans and retry/brownout instants per
/// trial onto `ring`, timestamped t0_s + wall-elapsed.
struct FlightHook {
  obs::FlightRecorder* flight = nullptr;
  std::size_t ring = 0;
  double t0_s = 0.0;  ///< telemetry-clock time at execution start
};

/// Execute one request synchronously — the exact code path a service
/// worker runs, exposed so `ivnet replay-exemplar` and tests re-execute a
/// captured request deterministically. The response is a pure function of
/// (config.link, request): worker count, queue depth, and arrival order
/// never change response bytes. `workspace` is unused: sessions keep their
/// own scratch, and the parameter stays only until the benchmark's serve
/// replay stops passing one. Wall timings in the response are left zero —
/// the caller owns queue_wait_s/service_s.
Response execute_request(const ServiceConfig& config, const Request& request,
                         DspWorkspace& workspace,
                         StageTimings* stages = nullptr,
                         const FlightHook* hook = nullptr);

class InventoryService {
 public:
  using CompletionSink = std::function<void(const Response&)>;

  /// Spawns the worker pool immediately. `sink` is invoked once per
  /// completed request, possibly concurrently from different workers; it
  /// must be thread-safe. A null sink is allowed (fire-and-forget).
  InventoryService(ServiceConfig config, CompletionSink sink);
  ~InventoryService();  // stop()

  InventoryService(const InventoryService&) = delete;
  InventoryService& operator=(const InventoryService&) = delete;

  /// Non-blocking. False when the bounded queue is full (request shed,
  /// svc.rejected) or the service is stopping (svc.rejected.stopped).
  bool submit(Request request);

  /// Drain the queue and quiesce the workers. Idempotent. Callers must not
  /// race submit() against stop():
  /// a submit that wins the acceptance check while stop() runs may be
  /// executed by the drain pass or dropped, and its accounting is then
  /// unspecified.
  void stop();

  // -- Introspection (monotonic counters are exact; inflight is racy) -----
  std::uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  std::uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }
  std::size_t inflight_peak() const { return inflight_peak_.load(std::memory_order_relaxed); }
  /// Distinct anomaly episodes latched by the rolling-window detectors
  /// (config.telemetry required). An episode is one transition from calm
  /// to anomalous; it ends when a completion observes a calm window again.
  std::uint64_t anomalies() const { return anomalies_.load(std::memory_order_relaxed); }
  std::size_t queue_capacity() const { return queue_.capacity(); }
  const ServiceConfig& config() const { return config_; }
  /// Seconds since construction on the wall telemetry clock — the `now_s`
  /// an external sampler should pass to the telemetry bundle's queries so
  /// its windows line up with the service's wall-mode ingest timestamps.
  double wall_time_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

 private:
  void worker_loop(std::size_t index);
  /// `ring` is the flight-recorder ring (1 + worker index; stop()'s inline
  /// drain reuses worker 0's).
  void handle(Request request, std::size_t ring);
  /// Telemetry-clock timestamp for `request` right now: wall seconds since
  /// construction, or the request's offered_t_s in sim mode.
  double telemetry_now(const Request& request) const;

  ServiceConfig config_;
  CompletionSink sink_;
  MpmcRingQueue<Request> queue_;
  /// Credits mirror queue occupancy: one release per accepted request, plus
  /// one shutdown credit per worker from stop(). An empty pop only means
  /// "shutdown credit" once stopping_ is set; before that it can be a
  /// producer mid-publish, and the credit-holding worker retries the pop.
  std::counting_semaphore<> ready_{0};
  std::vector<std::thread> workers_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  bool stopped_ = false;  // guarded by stop_mutex_

  /// Wall epoch for TelemetryClock::kWall timestamps.
  const std::chrono::steady_clock::time_point epoch_{
      std::chrono::steady_clock::now()};
  /// True while the anomaly detectors are latched; edges count episodes.
  std::atomic<bool> anomaly_latched_{false};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> inflight_peak_{0};
};

}  // namespace ivnet::svc
