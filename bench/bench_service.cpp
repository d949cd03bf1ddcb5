// Telemetry-overhead gate for the inventory service: the full observability
// stack (ServiceTelemetry's epoch ring of windows and exemplars, two lock
// acquisitions per request, plus the flight recorder — the CI soak
// configuration) must cost at most 3% of the bare service's CPU time per
// request, and must not change a single response byte.
//
// Two long-lived one-worker services, one bare and one instrumented, serve
// the same MMPP decode stream in kBlocks blocks of kBlockRequests requests.
// Block p runs on both services back to back, alternating which goes first,
// and yields one paired ratio: the process CPU time the instrumented block
// took over the bare block's (same requests, so the same ratio per
// request). The process pins itself to one CPU of its affinity mask first,
// so both workers share it and thread placement cannot favour one side.
//
// Gate (exit code): the upper end of the sign-test 95% confidence interval
// for the median ratio must be <= 1.03, and both services' response digests
// must match. Throughput and latency of the service are perfbench's `serve`
// workload; this binary times nothing else.
//
//   ./bench_service        (no arguments; prints one line)
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/telemetry.hpp"
#include "ivnet/svc/loadgen.hpp"
#include "ivnet/svc/service.hpp"

namespace {

using namespace ivnet;
using namespace ivnet::svc;

constexpr std::size_t kBlocks = 400;
constexpr std::size_t kBlockRequests = 32;
constexpr std::uint64_t kSeed = 41;
constexpr double kConfidence = 0.95;
constexpr double kBoundRatio = 1.03;

/// Request template: short decode dialogues at a mid-waterfall SNR, heavy
/// enough to cost real DSP per request.
LoadState decode_state(double relative_rate) {
  LoadState state;
  state.rate_rps = relative_rate;
  state.kind = RequestKind::kDecode;
  state.trials = 2;
  state.antennas = 2;
  state.snr_db = 14.0;
  return state;
}

/// 2-state MMPP (calm 0.5x, surge 1.5x, p_stay 0.9). Arrival times are
/// ignored here; the schedule only supplies the deterministic requests.
std::vector<ScheduledRequest> request_stream() {
  LoadGenConfig config;
  config.states = {decode_state(0.5), decode_state(1.5)};
  config.transition = {0.9, 0.1, 0.1, 0.9};
  config.requests = kBlocks * kBlockRequests;
  config.seed = kSeed;
  return generate_schedule(config);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the first CPU of its affinity mask. Returns that CPU, or -1 on failure.
int pin_to_one_cpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// One long-lived one-worker service and the collector its responses land
/// in. Declaration order matters: the service stops before what it uses.
class Side {
 public:
  explicit Side(bool with_telemetry) {
    ServiceConfig config;
    config.workers = 1;
    config.queue_depth = kBlockRequests;  // a whole block fits the ring
    if (with_telemetry) {
      telemetry_.emplace();
      flight_.emplace(config.workers + 1);
      config.telemetry = &*telemetry_;
      config.flight = &*flight_;
    }
    service_.emplace(config, collector_.sink());
  }

  /// Serves requests [first, first + kBlockRequests) to completion and
  /// returns the process CPU seconds that took.
  double run_block(const ScheduledRequest* first) {
    const double t0 = process_cpu_s();
    for (std::size_t i = 0; i < kBlockRequests; ++i) {
      accepted_ += service_->submit(first[i].request) ? 1 : 0;
    }
    collector_.wait_for_completed(accepted_);
    return process_cpu_s() - t0;
  }

  std::size_t completed() const { return collector_.completed(); }
  std::uint64_t digest() const { return collector_.digest(); }

 private:
  std::optional<obs::ServiceTelemetry> telemetry_;
  std::optional<obs::FlightRecorder> flight_;
  LatencyCollector collector_;
  std::optional<InventoryService> service_;
  std::size_t accepted_ = 0;
};

/// Largest 1-based rank k with P(Binomial(n, 1/2) <= k - 1) <= (1 - c) / 2:
/// [x_(k), x_(n+1-k)] of the sorted sample is then a distribution-free
/// (sign-test) confidence interval for the median with coverage >= c.
std::size_t sign_test_rank(std::size_t n, double confidence) {
  const double tail = 0.5 * (1.0 - confidence);
  double pmf = std::ldexp(1.0, -static_cast<int>(n));  // P(B = 0)
  double cdf = 0.0;
  std::size_t k = 0;
  while (k < n && cdf + pmf <= tail) {
    cdf += pmf;
    pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1);
    ++k;
  }
  return k;
}

}  // namespace

int main() {
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "bench_service: cannot pin to one CPU\n");
    return 1;
  }
  // Keep the shared parallel_for pool from adding threads next to the
  // two service workers.
  set_parallel_threads(1);

  const std::vector<ScheduledRequest> stream = request_stream();
  Side bare(false);
  Side instrumented(true);
  std::vector<double> ratios(kBlocks);
  for (std::size_t p = 0; p < kBlocks; ++p) {
    const ScheduledRequest* block = stream.data() + p * kBlockRequests;
    double off_s = 0.0;
    double on_s = 0.0;
    if (p % 2 == 0) {
      off_s = bare.run_block(block);
      on_s = instrumented.run_block(block);
    } else {
      on_s = instrumented.run_block(block);
      off_s = bare.run_block(block);
    }
    ratios[p] = on_s / off_s;
  }

  std::sort(ratios.begin(), ratios.end());
  const double median = 0.5 * (ratios[kBlocks / 2 - 1] + ratios[kBlocks / 2]);
  const std::size_t k = sign_test_rank(kBlocks, kConfidence);
  const double upper = k > 0 ? ratios[kBlocks - k] : INFINITY;
  const bool identical = bare.completed() == stream.size() &&
                         instrumented.completed() == stream.size() &&
                         bare.digest() == instrumented.digest();
  const bool pass = identical && upper <= kBoundRatio;
  std::printf(
      "telemetry overhead gate %s: median %+.2f%%, sign-test %.0f%% upper "
      "%+.2f%% %s %+.0f%%, responses %s (%zu blocks x %zu requests, 1 "
      "worker per side on cpu %d)\n",
      pass ? "pass" : "FAIL", 100.0 * (median - 1.0), 100.0 * kConfidence,
      100.0 * (upper - 1.0), upper <= kBoundRatio ? "<=" : ">",
      100.0 * (kBoundRatio - 1.0), identical ? "identical" : "DIVERGED",
      kBlocks, kBlockRequests, cpu);
  return pass ? 0 : 1;
}
