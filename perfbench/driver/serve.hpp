// The serve pass, shared by the serve workload and the per-layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ivnet/svc/loadgen.hpp"

namespace perfbench {

struct ServeInputs {
  std::vector<ivnet::svc::ScheduledRequest> open;    ///< open-loop phase
  std::vector<ivnet::svc::ScheduledRequest> closed;  ///< saturation phase
  std::vector<std::uint64_t> pool;                   ///< patient plan seeds
  std::size_t workers = 1;
};

ServeInputs serve_inputs(std::uint64_t seed, std::size_t workers,
                         std::size_t open_requests,
                         std::size_t closed_requests);

/// Per-request record of one pass, indexed by request id.
struct ServePass {
  double setup_s = 0.0;
  double sat_rps = 0.0;
  /// Open loop, seconds from the replay start: when each request was due
  /// and when it completed (NaN = shed).
  std::vector<double> due_s;
  std::vector<double> done_s;
  std::vector<double> late_ms;  ///< how late the submitter ran
  std::vector<double> queue_wait_s;
  std::vector<double> service_s;
  std::vector<ivnet::svc::RequestKind> kind;
  std::vector<std::uint32_t> trials;
  std::vector<std::uint32_t> succeeded;
  std::size_t accepted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t inflight_peak = 0;
  std::uint64_t digest = 0;
  std::string plan_journal;  ///< the pass's plan store
};

/// One pass: set up (cold memo, fresh plan store, worker spawn, patient
/// pre-warm), replay the open-loop schedule at its absolute rate from this
/// single submitting thread, then the closed-loop saturation phase.
ServePass serve_pass(Context& ctx, const ServeInputs& inputs);

/// Inline execute_request replay of both schedules on `threads` threads,
/// outside any timed window: the reference digest and, per request id, the
/// inline execution time [s].
struct ServeReplay {
  std::uint64_t digest = 0;
  std::vector<double> exec_s;
};
ServeReplay serve_replay(const ServeInputs& inputs,
                         const std::string& plan_journal, std::size_t threads);

}  // namespace perfbench
