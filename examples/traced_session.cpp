// Traced session: run a lossy impaired-link sweep with the telemetry sink
// installed, then inspect what the retry machinery actually did — retry and
// brownout counters from the metrics registry, plus a simulated-time trace
// you can load into chrome://tracing or ui.perfetto.dev.
//
//   $ ./traced_session
//   ... prints the headline counters and writes traced_session_trace.json
#include <cstdio>
#include <string>

#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/obs/obs.hpp"

int main() {
  using namespace ivnet;

  // 1. Install a sink: a metrics registry for order-free aggregates and a
  //    tracer (timestamps are the sessions' simulated seconds, so the trace
  //    is reproducible — rerun it and diff the bytes).
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::install(obs::Sink{.metrics = &registry, .tracer = &tracer});

  // 2. A deliberately lossy link: low SNR, heavy burst erasures, and the
  //    brownout model on, so the tag loses its rail mid-dialogue. Two
  //    retries per command buy some of it back.
  DepthSweepConfig sweep;
  sweep.depths_m = {0.02, 0.06, 0.10};
  sweep.trials_per_point = 24;
  sweep.link.snr_db = 14.0;
  sweep.link.num_antennas = 4;
  sweep.link.impair.bursts = {.rate_hz = 120.0, .mean_duration_s = 5e-4,
                              .depth_db = 40.0};
  sweep.link.recovery = RecoveryPolicy::retries(2);
  Rng rng(77);
  std::printf("%-10s %-12s %-10s\n", "depth [m]", "loss [dB]", "success");
  for (const auto& p : run_success_vs_depth(sweep, rng)) {
    std::printf("%-10.2f %-12.1f %-10.3f\n", p.depth_m, p.medium_loss_db,
                p.success_rate);
  }
  obs::install_null();

  // 3. What did recovery do? Pull the counters straight off the registry.
  std::printf("\nsessions      : %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("link.sessions").value()));
  std::printf("successes     : %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("link.success").value()));
  std::printf("retries       : %llu (query %llu, ack %llu)\n",
              static_cast<unsigned long long>(
                  registry.counter("recovery.link.retries").value()),
              static_cast<unsigned long long>(
                  registry.counter("link.retry.query").value()),
              static_cast<unsigned long long>(
                  registry.counter("link.retry.ack").value()));
  std::printf("timeouts      : %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("recovery.link.timeouts").value()));
  std::printf("brownout trips: %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("brownout.comparator_trips").value()));
  std::printf("decode ok/fail: %llu / %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("link.decode.ok").value()),
              static_cast<unsigned long long>(
                  registry.counter("link.decode.fail").value()));
  const obs::Histogram& elapsed = registry.histogram("link.elapsed_s");
  std::printf("session time  : p50 %.3f s, p99 %.3f s\n",
              elapsed.quantile(0.50), elapsed.quantile(0.99));

  // 4. Dump the sim trace; one track per (depth, trial) session.
  const std::string trace = tracer.to_json();
  std::FILE* f = std::fopen("traced_session_trace.json", "w");
  if (f != nullptr) {
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("\nwrote traced_session_trace.json (%zu events) — open in "
                "chrome://tracing\n",
                tracer.event_count());
  }
  return 0;
}
