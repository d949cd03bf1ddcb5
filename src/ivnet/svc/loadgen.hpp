// Markov-modulated load harness for the inventory service.
//
// Offered load in the paper's setting is bursty: a clinician sweeping a
// wand produces dense inventory rounds, idle wards produce sparse decode
// probes. We model that as an MMPP-style generator — a discrete-time Markov
// chain over load states, each state carrying an arrival rate and a request
// template. The generator is OPEN LOOP and fully deterministic: the entire
// arrival schedule (timestamps, request kinds, per-request seeds) is
// materialized up front from one Rng::stream, so two runs with the same
// LoadGenConfig submit byte-identical request sequences regardless of how
// the service behind them is provisioned. loadgen_test pins the schedule
// field by field (doubles by bit pattern) across repeated generations and
// pool sizes.
//
// Two replay modes:
//   run_open_loop   — wall-clock replay of the schedule (scaled by
//                     time_scale); arrivals do not wait for completions, so
//                     offered load beyond saturation sheds at the service's
//                     bounded queue (`ivnet serve` without --closed-loop).
//   run_closed_loop — fixed concurrency window: request i is submitted only
//                     after i - concurrency completions. Never sheds (a
//                     window above the queue capacity is rejected up front,
//                     so the window bounds queue occupancy), never idles the
//                     workers; its throughput is the saturation estimate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ivnet/svc/service.hpp"

namespace ivnet::svc {

/// One DTMC load state: an arrival rate plus the request template stamped
/// on arrivals generated while the chain sits in this state.
struct LoadState {
  double rate_rps = 100.0;  ///< mean arrival rate while in this state
  RequestKind kind = RequestKind::kDecode;
  std::uint32_t trials = 1;
  std::uint16_t antennas = 1;
  double snr_db = 20.0;
  double medium_loss_db = 0.0;
};

struct LoadGenConfig {
  std::vector<LoadState> states;
  /// Row-major |states| x |states| transition matrix; rows must sum to ~1.
  /// Empty means "stay forever in initial_state" (degenerate 1-state MMPP).
  std::vector<double> transition;
  std::size_t requests = 1000;
  std::size_t initial_state = 0;
  std::uint64_t seed = 1;
  /// Multiplies every state's rate_rps; the offered-load knob the bench
  /// sweeps without rebuilding the config.
  double rate_scale = 1.0;
};

/// One scheduled arrival: absolute offered time plus the ready-to-submit
/// request (id = schedule index, seed drawn from the schedule stream).
struct ScheduledRequest {
  double t_s = 0.0;          ///< offered (schedule) time of the arrival
  std::size_t state = 0;     ///< DTMC state that generated it
  Request request;
};

/// Materialize the full arrival schedule. Deterministic in `config` alone:
/// one Rng::stream(config.seed, 0) drives inter-arrival draws, per-request
/// seeds, and DTMC transitions, in that fixed per-arrival order. The chain
/// steps once per arrival (arrival-synchronous modulation).
std::vector<ScheduledRequest> generate_schedule(const LoadGenConfig& config);

/// Thread-safe completion sink: collects per-request latency samples and an
/// order-independent response digest. Install via sink() at service
/// construction; read the accessors after service.stop().
class LatencyCollector {
 public:
  void record(const Response& response);

  /// A CompletionSink forwarding to record(). The collector must outlive
  /// the service it is installed in.
  InventoryService::CompletionSink sink() {
    return [this](const Response& r) { record(r); };
  }

  /// Block until at least `n` responses have been recorded.
  void wait_for_completed(std::size_t n);

  std::size_t completed() const;
  std::uint64_t succeeded_sessions() const;
  /// XOR of per-response hashes over (id, kind, trials, succeeded,
  /// sim_elapsed bits): order-independent, so equal digests across worker
  /// counts mean byte-identical response payloads.
  std::uint64_t digest() const;

  /// Exact quantile (nearest-rank) of the recorded queue-wait / service /
  /// end-to-end (wait + service) latency samples, q in [0, 1]. NaN when no
  /// samples have been recorded.
  double queue_wait_quantile(double q) const;
  double service_quantile(double q) const;
  double latency_quantile(double q) const;
  double sim_elapsed_total_s() const;

 private:
  static double quantile_of(std::vector<double> samples, double q);

  mutable std::mutex mutex_;
  std::condition_variable completed_cv_;
  std::vector<double> queue_wait_s_;
  std::vector<double> service_s_;
  std::uint64_t succeeded_sessions_ = 0;
  std::uint64_t digest_ = 0;
  double sim_elapsed_total_s_ = 0.0;
};

struct ReplayResult {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double wall_s = 0.0;  ///< wall-clock span of the replay (submit side)
};

/// Wall-clock open-loop replay: submit each arrival at t_s * time_scale
/// after the replay start, never waiting for completions. time_scale < 1
/// compresses the schedule (offered load grows by 1/time_scale); use
/// LoadGenConfig::rate_scale instead where possible so the schedule itself
/// reflects the offered load.
ReplayResult run_open_loop(InventoryService& service,
                           const std::vector<ScheduledRequest>& schedule,
                           double time_scale = 1.0);

/// Closed-loop replay: at most `concurrency` requests outstanding, arrival
/// timestamps ignored. Requires a collector-backed sink so completions can
/// be awaited. Throws std::invalid_argument when `concurrency` exceeds
/// service.queue_capacity(); within it the window bounds queue occupancy
/// and no request is ever shed.
ReplayResult run_closed_loop(InventoryService& service,
                             LatencyCollector& collector,
                             const std::vector<ScheduledRequest>& schedule,
                             std::size_t concurrency);

}  // namespace ivnet::svc
