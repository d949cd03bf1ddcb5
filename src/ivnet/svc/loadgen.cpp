#include "ivnet/svc/loadgen.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "ivnet/common/rng.hpp"

namespace ivnet::svc {

std::vector<ScheduledRequest> generate_schedule(const LoadGenConfig& config) {
  std::vector<ScheduledRequest> schedule;
  if (config.states.empty() || config.requests == 0) return schedule;
  schedule.reserve(config.requests);

  const std::size_t n = config.states.size();
  const bool has_matrix = config.transition.size() == n * n;
  Rng rng = Rng::stream(config.seed, 0);
  std::size_t state = std::min(config.initial_state, n - 1);
  double t_s = 0.0;

  for (std::size_t i = 0; i < config.requests; ++i) {
    const LoadState& load = config.states[state];
    const double rate =
        std::max(1e-9, load.rate_rps * std::max(1e-12, config.rate_scale));
    // Exponential inter-arrival at the current state's rate. -log1p(-u) is
    // exact for u in [0, 1): never -log(0).
    t_s += -std::log1p(-rng.uniform()) / rate;

    ScheduledRequest scheduled;
    scheduled.t_s = t_s;
    scheduled.state = state;
    // Service telemetry attributes the request to its offered time.
    scheduled.request.offered_t_s = t_s;
    scheduled.request.kind = load.kind;
    scheduled.request.trials = std::max<std::uint32_t>(1, load.trials);
    scheduled.request.antennas = std::max<std::uint16_t>(1, load.antennas);
    scheduled.request.snr_db = load.snr_db;
    scheduled.request.medium_loss_db = load.medium_loss_db;
    scheduled.request.id = i;
    scheduled.request.seed = rng();  // independent per-request trial stream
    schedule.push_back(scheduled);

    // Arrival-synchronous modulation: one DTMC step per arrival. The draw
    // happens even on the degenerate single-state chain so adding states to
    // a config never re-times the arrivals that precede the change.
    const double u = rng.uniform();
    if (has_matrix) {
      double cumulative = 0.0;
      std::size_t next = n - 1;  // absorb rounding into the last state
      for (std::size_t j = 0; j < n; ++j) {
        cumulative += config.transition[state * n + j];
        if (u < cumulative) {
          next = j;
          break;
        }
      }
      state = next;
    }
  }
  return schedule;
}

void LatencyCollector::record(const Response& response) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_wait_s_.push_back(response.queue_wait_s);
    service_s_.push_back(response.service_s);
    succeeded_sessions_ += response.succeeded;
    sim_elapsed_total_s_ += response.sim_elapsed_s;
    digest_ ^= response_hash(response);
  }
  completed_cv_.notify_all();
}

void LatencyCollector::wait_for_completed(std::size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  completed_cv_.wait(lock, [&] { return queue_wait_s_.size() >= n; });
}

std::size_t LatencyCollector::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_wait_s_.size();
}

std::uint64_t LatencyCollector::succeeded_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return succeeded_sessions_;
}

std::uint64_t LatencyCollector::digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return digest_;
}

double LatencyCollector::quantile_of(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank on the sorted samples: exact percentiles, no histogram
  // bucket resolution in the way.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

double LatencyCollector::queue_wait_quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quantile_of(queue_wait_s_, q);
}

double LatencyCollector::service_quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quantile_of(service_s_, q);
}

double LatencyCollector::latency_quantile(double q) const {
  std::vector<double> total;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total.resize(queue_wait_s_.size());
    for (std::size_t i = 0; i < total.size(); ++i) {
      total[i] = queue_wait_s_[i] + service_s_[i];
    }
  }
  return quantile_of(std::move(total), q);
}

double LatencyCollector::sim_elapsed_total_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sim_elapsed_total_s_;
}

ReplayResult run_open_loop(InventoryService& service,
                           const std::vector<ScheduledRequest>& schedule,
                           double time_scale) {
  ReplayResult result;
  const auto start = std::chrono::steady_clock::now();
  for (const ScheduledRequest& scheduled : schedule) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(scheduled.t_s * time_scale));
    // Open loop: the submitter honours the schedule clock and nothing else.
    // A backlogged service sheds at the ring; we never slow down for it.
    std::this_thread::sleep_until(due);
    ++result.submitted;
    if (service.submit(scheduled.request)) {
      ++result.accepted;
    } else {
      ++result.rejected;
    }
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return result;
}

ReplayResult run_closed_loop(InventoryService& service,
                             LatencyCollector& collector,
                             const std::vector<ScheduledRequest>& schedule,
                             std::size_t concurrency) {
  const std::size_t window = std::max<std::size_t>(1, concurrency);
  if (window > service.queue_capacity()) {
    throw std::invalid_argument(
        "run_closed_loop: window " + std::to_string(window) +
        " exceeds the service queue capacity " +
        std::to_string(service.queue_capacity()));
  }
  ReplayResult result;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i >= window) collector.wait_for_completed(i + 1 - window);
    ++result.submitted;
    if (service.submit(schedule[i].request)) {
      ++result.accepted;
    } else {
      ++result.rejected;
    }
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return result;
}

}  // namespace ivnet::svc
