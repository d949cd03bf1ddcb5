#include "ivnet/svc/service.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/telemetry.hpp"
#include "ivnet/sim/planner.hpp"

namespace ivnet::svc {
namespace {

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// SplitMix64 finalizer — the mixing step of response_hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const char* kind_counter(RequestKind kind) {
  switch (kind) {
    case RequestKind::kDecode:
      return "svc.requests.decode";
    case RequestKind::kInventory:
      return "svc.requests.inventory";
    case RequestKind::kPlan:
      return "svc.requests.plan";
  }
  return "svc.requests.unknown";
}

}  // namespace

std::uint64_t response_hash(const Response& response) {
  std::uint64_t h = mix64(response.id);
  h = mix64(h ^ static_cast<std::uint64_t>(response.kind));
  h = mix64(h ^ response.trials);
  h = mix64(h ^ response.succeeded);
  h = mix64(h ^ std::bit_cast<std::uint64_t>(response.sim_elapsed_s));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(response.plan_score));
  return h;
}

Request request_from_exemplar(const obs::Exemplar& exemplar) {
  const std::string which = "exemplar id " + std::to_string(exemplar.id);
  if (exemplar.kind > static_cast<std::uint32_t>(RequestKind::kPlan)) {
    throw std::invalid_argument(which + ": kind " +
                                std::to_string(exemplar.kind) +
                                " is not a request kind (0-2)");
  }
  if (exemplar.antennas > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(which + ": antennas " +
                                std::to_string(exemplar.antennas) +
                                " exceeds 65535");
  }
  Request request;
  request.kind = static_cast<RequestKind>(exemplar.kind);
  request.trials = exemplar.trials;
  request.antennas = static_cast<std::uint16_t>(exemplar.antennas);
  request.id = exemplar.id;
  request.seed = exemplar.seed;
  request.snr_db = exemplar.snr_db;
  request.medium_loss_db = exemplar.medium_loss_db;
  return request;
}

ImpairedLinkConfig link_config_for(const ServiceConfig& config,
                                   const Request& request) {
  ImpairedLinkConfig link = config.link;
  link.snr_db = request.snr_db;
  link.num_antennas = std::max<std::size_t>(1, request.antennas);
  link.medium_loss_db = request.medium_loss_db;
  if (request.kind == RequestKind::kInventory) {
    // Inventory dialogues are the heavier class: adaptive Q from a dense-
    // population prior plus one extra recovery attempt over the template.
    link.adaptive_q.initial_q = 2.0;
    link.recovery.max_attempts =
        std::max(link.recovery.max_attempts, 3);
  }
  return link;
}

Response execute_request(const ServiceConfig& config, const Request& request,
                         DspWorkspace& /*workspace*/,
                         obs::StageSpans* stages, const FlightHook* hook) {
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  const auto start = std::chrono::steady_clock::now();
  obs::FlightRecorder* flight =
      (hook != nullptr) ? hook->flight : nullptr;
  // Flight timestamps advance with wall time from the request's offered
  // time, so the intra-request spans are real durations.
  const auto flight_now = [&] {
    return hook->t0_s +
           seconds_between(start, std::chrono::steady_clock::now());
  };

  switch (request.kind) {
    case RequestKind::kPlan: {
      // Re-plan through the content-addressed plan store: the annealed
      // delta-evaluated Eq. 10 search on a miss, the stored plan bytes on a
      // hit (identical (antennas, seed) requests spend zero objective
      // evaluations; journal-backed when config.plan_journal_path is set).
      // Deterministic in (seed, antennas); the planner's internal
      // parallel_for must be inline in the calling thread (service workers
      // hold ScopedInlineParallel; replay callers set it up themselves).
      if (flight != nullptr) {
        flight->record(hook->ring, obs::FlightEvent::kStageEnter,
                       flight_now(), request.id, 0);
      }
      FrequencyPlanRequest plan_request;
      plan_request.antennas = std::clamp<std::size_t>(request.antennas, 2, 64);
      plan_request.mc_trials = 8;
      plan_request.moves = 24;
      plan_request.restarts = 1;
      plan_request.seed = request.seed;
      const FrequencyPlanOutcome plan =
          plan_frequencies(plan_request, config.plan_journal_path);
      response.succeeded = 1;
      response.plan_score = plan.score;
      const double span_s =
          seconds_between(start, std::chrono::steady_clock::now());
      if (stages != nullptr) stages->add(span_s);
      if (flight != nullptr) {
        flight->record(hook->ring, obs::FlightEvent::kStageExit, flight_now(),
                       request.id, 0);
      }
      return response;
    }

    case RequestKind::kDecode:
    case RequestKind::kInventory: {
      const ImpairedLinkConfig link = link_config_for(config, request);
      const std::uint32_t trials = std::max<std::uint32_t>(1, request.trials);
      response.trials = trials;
      // One stage per trial, in trial order: the summed air time folds
      // deterministically.
      for (std::uint32_t t = 0; t < trials; ++t) {
        const auto trial_start = std::chrono::steady_clock::now();
        if (flight != nullptr) {
          flight->record(hook->ring, obs::FlightEvent::kStageEnter,
                         flight_now(), request.id, t);
        }
        Rng trial_rng = Rng::stream(request.seed, t);
        const LinkSessionReport report =
            run_impaired_link_session(link, trial_rng);
        response.succeeded += report.success ? 1 : 0;
        response.sim_elapsed_s += report.elapsed_s;
        if (flight != nullptr) {
          if (report.recovery.retries > 0) {
            flight->record(
                hook->ring, obs::FlightEvent::kRetry, flight_now(),
                request.id,
                static_cast<std::uint64_t>(report.recovery.retries));
          }
          if (!report.powered) {
            flight->record(hook->ring, obs::FlightEvent::kBrownout,
                           flight_now(), request.id, t);
          }
        }
        if (stages != nullptr) {
          stages->add(seconds_between(trial_start,
                                      std::chrono::steady_clock::now()));
        }
        if (flight != nullptr) {
          flight->record(hook->ring, obs::FlightEvent::kStageExit,
                         flight_now(), request.id, t);
        }
      }
      return response;
    }
  }
  return response;
}

InventoryService::InventoryService(ServiceConfig config, CompletionSink sink)
    : config_(config),
      sink_(std::move(sink)),
      queue_(std::max<std::size_t>(2, config.queue_depth)),
      workers_(std::max<std::size_t>(1, config.workers)) {
  obs::gauge_set("svc.workers", static_cast<double>(workers_.size()));
  obs::gauge_set("svc.queue_depth", static_cast<double>(queue_.capacity()));
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w] = std::thread([this, w] { worker_loop(w); });
  }
}

InventoryService::~InventoryService() { stop(); }

bool InventoryService::submit(Request request) {
  if (stopping_.load(std::memory_order_acquire)) {
    obs::count("svc.rejected.stopped");
    return false;
  }
  request.accepted_at = std::chrono::steady_clock::now();
  if (!queue_.try_push(request)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.rejected");
    if (config_.telemetry != nullptr) {
      config_.telemetry->on_shed(request.offered_t_s);
    }
    if (config_.flight != nullptr) {
      config_.flight->record(0, obs::FlightEvent::kShed, request.offered_t_s,
                             request.id);
    }
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  obs::count("svc.accepted");
  if (config_.telemetry != nullptr) {
    config_.telemetry->on_accept(request.offered_t_s);
  }
  if (config_.flight != nullptr) {
    config_.flight->record(0, obs::FlightEvent::kEnqueue, request.offered_t_s,
                           request.id);
  }
  ready_.release();
  return true;
}

void InventoryService::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  ready_.release(static_cast<std::ptrdiff_t>(workers_.size()));
  for (std::thread& worker : workers_) worker.join();
  // A submit racing the shutdown may have pushed after the workers drew
  // their shutdown credits; finish those requests inline so stop() always
  // leaves an empty ring.
  {
    ScopedInlineParallel inline_parallel;
    Request request;
    while (queue_.try_pop(request)) handle(request, /*ring=*/1);
  }
  obs::gauge_set("svc.inflight", 0.0);
  stopped_ = true;
}

void InventoryService::worker_loop(std::size_t index) {
  // Request handlers that reach parallelized kernels (kPlan's optimizer)
  // run them inline on this worker: the service pool IS the parallelism.
  ScopedInlineParallel inline_parallel;
  for (;;) {
    ready_.acquire();
    Request request;
    while (!queue_.try_pop(request)) {
      // A credit with no poppable element means one of two things. During
      // shutdown it is a shutdown credit from stop(): drain is complete,
      // exit. Outside shutdown it means a producer was preempted between
      // CAS-claiming the FIFO head slot and publishing its sequence while a
      // later push released this credit — the element is in flight, so spin
      // until it lands. Exiting here instead would silently shrink the pool
      // and strand an accepted request until stop().
      if (stopping_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    handle(request, /*ring=*/1 + index);
  }
}

void InventoryService::handle(Request request, std::size_t ring) {
  const auto picked_at = std::chrono::steady_clock::now();
  const double queue_wait_s = seconds_between(request.accepted_at, picked_at);
  const std::size_t inflight_now =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = inflight_peak_.load(std::memory_order_relaxed);
  while (inflight_now > peak &&
         !inflight_peak_.compare_exchange_weak(peak, inflight_now,
                                               std::memory_order_relaxed)) {
  }
  obs::gauge_set("svc.inflight", static_cast<double>(inflight_now));
  obs::observe("svc.queue_wait", queue_wait_s);
  if (config_.flight != nullptr) {
    config_.flight->record(ring, obs::FlightEvent::kDequeue,
                           request.offered_t_s, request.id);
  }

  obs::Exemplar exemplar;
  const FlightHook hook{config_.flight, ring, request.offered_t_s};
  DspWorkspace workspace;
  Response response =
      execute_request(config_, request, workspace, &exemplar.stages,
                      config_.flight != nullptr ? &hook : nullptr);
  response.queue_wait_s = queue_wait_s;
  response.service_s =
      seconds_between(picked_at, std::chrono::steady_clock::now());
  obs::observe("svc.service_time", response.service_s);
  obs::observe("svc.sim_elapsed_s", response.sim_elapsed_s);
  obs::count(kind_counter(request.kind));
  obs::count("svc.completed");
  obs::count("svc.success", response.succeeded);
  if (request.kind == RequestKind::kDecode ||
      request.kind == RequestKind::kInventory) {
    obs::count("svc.sessions", request.trials);
  }

  if (config_.telemetry != nullptr) {
    exemplar.kind = static_cast<std::uint32_t>(request.kind);
    exemplar.trials = request.trials;
    exemplar.antennas = request.antennas;
    exemplar.id = request.id;
    exemplar.seed = request.seed;
    exemplar.snr_db = request.snr_db;
    exemplar.medium_loss_db = request.medium_loss_db;
    exemplar.t_s = request.offered_t_s;
    exemplar.queue_wait_s = queue_wait_s;
    exemplar.service_s = response.service_s;
    exemplar.response_hash = response_hash(response);
    // The telemetry runs the 1 s detectors in the same critical section and
    // reports only the completion that starts an anomaly episode.
    const obs::TelemetryAnomaly started =
        config_.telemetry->on_complete(exemplar);
    if (started.any()) {
      obs::count("svc.anomalies");
      if (config_.flight != nullptr) {
        const std::uint64_t detail = (started.shed_storm ? 1u : 0u) |
                                     (started.queue_saturated ? 2u : 0u);
        config_.flight->record(ring, obs::FlightEvent::kAnomaly,
                               request.offered_t_s, request.id, detail);
      }
    }
  }

  // Retire BEFORE the sink runs: a closed-loop submitter that wakes on the
  // sink's completion signal must see this request already out of flight,
  // or its concurrency window would transiently overshoot by one.
  const std::size_t inflight_after =
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  obs::gauge_set("svc.inflight", static_cast<double>(inflight_after));
  completed_.fetch_add(1, std::memory_order_relaxed);

  if (sink_) sink_(response);
}

}  // namespace ivnet::svc
