// The telemetry sink facade: the one header the instrumented layers
// include. A sink is a (MetricsRegistry*, Tracer*) pair installed globally;
// every hook below checks an atomic pointer and compiles down to a single
// relaxed load + branch when no sink is installed (the null sink), so the
// hot paths pay nothing for the instrumentation they carry.
//
// Ownership: the sink does NOT own the registry or tracer — the installer
// (CLI, bench, test) keeps them alive and must uninstall (install_null)
// before destroying them. Hooks never allocate when the sink is null.
//
// Determinism: counters and histogram observations made from the parallel
// trial loops record order-free quantities (see obs/metrics.hpp), and trace
// events are stamped in simulated time and ordered by per-trial track
// (ScopedTrack), so snapshots and traces are byte-stable across thread
// counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/trace.hpp"

namespace ivnet::obs {

struct Sink {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

/// Install the global sink (either pointer may be null). Safe to call while
/// instrumented work is running: the pointers are published with a release
/// store and every hook reads them with an acquire load, so a hook that
/// observes the new sink also observes the fully-constructed registry and
/// tracer behind it. Hooks racing the install see either the old sink or
/// the new one, never a half-built object.
void install(Sink sink);

/// Remove the sink: every hook becomes a no-op again.
void install_null();

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics;
extern std::atomic<Tracer*> g_tracer;
}  // namespace detail

inline MetricsRegistry* metrics() {
  return detail::g_metrics.load(std::memory_order_acquire);
}

inline Tracer* tracer() {
  return detail::g_tracer.load(std::memory_order_acquire);
}

// --- Metric hooks (no-ops when no registry is installed) -----------------

inline void count(std::string_view name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = metrics()) m->counter(name).add(n);
}

inline void gauge_set(std::string_view name, double value) {
  if (MetricsRegistry* m = metrics()) m->gauge(name).set(value);
}

inline void observe(std::string_view name, double value,
                    std::span<const double> bounds = {}) {
  if (MetricsRegistry* m = metrics()) m->histogram(name, bounds).observe(value);
}

// --- Trace hooks ---------------------------------------------------------

/// Simulated-time span/instant on the calling thread's current track.
/// No-ops without a tracer.
inline void sim_span(std::string_view name, std::string_view cat, double t0_s,
                     double t1_s) {
  if (Tracer* t = tracer()) t->sim_span(name, cat, t0_s, t1_s);
}

inline void sim_instant(std::string_view name, std::string_view cat,
                        double t_s) {
  if (Tracer* t = tracer()) t->sim_instant(name, cat, t_s);
}

/// Installs a sim-time track for the duration of one trial: sim events
/// emitted underneath land on track `track` with a fresh sequence counter,
/// and the previous track state is restored on exit. Give each trial of a
/// sweep a UNIQUE track id (e.g. cell_index * trials + trial) — the
/// byte-stable trace ordering relies on (track, seq) being collision-free.
class ScopedTrack {
 public:
  explicit ScopedTrack(std::uint32_t track)
      : prev_track_(detail::current_sim_track()),
        prev_seq_(detail::current_sim_seq()) {
    detail::set_sim_track(track, 0);
  }
  ~ScopedTrack() { detail::set_sim_track(prev_track_, prev_seq_); }
  ScopedTrack(const ScopedTrack&) = delete;
  ScopedTrack& operator=(const ScopedTrack&) = delete;

 private:
  std::uint32_t prev_track_;
  std::uint64_t prev_seq_;
};

}  // namespace ivnet::obs
