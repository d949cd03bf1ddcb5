// Structured event tracer emitting Chrome trace_event JSON (the format
// chrome://tracing and Perfetto load directly): complete spans (ph "X"),
// instant events (ph "i"), one track (tid) per thread or per trial.
//
// Two clock domains, chosen at construction:
//
//   * kWall — spans measure std::chrono::steady_clock; the track is the
//     emitting thread (small ids assigned in first-event order). This is
//     the profiling mode: where does a sweep actually spend its time.
//   * kSim — timestamps are SIMULATED seconds supplied by the caller (the
//     session runners' elapsed_s bookkeeping), and the track is the
//     thread-local trial track installed by ScopedTrack (obs/obs.hpp).
//     Export sorts events by (track, per-track sequence), so two runs of
//     the same workload produce BYTE-identical traces for any thread
//     count — sim traces are diffable test artifacts, not just pictures.
//
// Wall spans are dropped in sim mode and vice versa: one trace file always
// carries a single, internally consistent clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ivnet::obs {

enum class TraceClock : std::uint8_t { kWall, kSim };

namespace detail {

/// Thread-local sim-time track state, installed by obs::ScopedTrack: the
/// trial's track id plus the next per-track event sequence number.
std::uint32_t current_sim_track();
std::uint64_t current_sim_seq();
void set_sim_track(std::uint32_t track, std::uint64_t seq);

}  // namespace detail

/// One recorded event, timestamps in microseconds (Chrome's native unit).
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';        ///< 'X' complete span, 'i' instant
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< spans only
  std::uint32_t track = 0;
  std::uint64_t seq = 0;  ///< per-track order key in sim mode
};

class Tracer {
 public:
  explicit Tracer(TraceClock clock = TraceClock::kWall);

  TraceClock clock() const { return clock_; }

  /// Wall-clock span with explicit microsecond offsets from the tracer's
  /// epoch (ScopedSpan in obs/obs.hpp computes these). No-op in sim mode.
  void wall_span(std::string_view name, std::string_view cat, double ts_us,
                 double dur_us);

  /// Simulated-time span/instant, seconds in, on the calling thread's
  /// current track (ScopedTrack). No-op in wall mode.
  void sim_span(std::string_view name, std::string_view cat, double t0_s,
                double t1_s);
  void sim_instant(std::string_view name, std::string_view cat, double t_s);

  /// Microseconds since construction (wall mode's time base).
  double now_us() const;

  std::size_t event_count() const;

  /// The Chrome trace_event document. Sim mode sorts by (track, seq) so the
  /// bytes are a pure function of the recorded work; wall mode sorts by
  /// (track, ts) for readable per-thread timelines.
  std::string to_json() const;

 private:
  void push(TraceEvent event);

  const TraceClock clock_;
  const std::uint64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;  // guarded by mutex_
};

}  // namespace ivnet::obs
