// Structured event tracer emitting Chrome trace_event JSON (the format
// chrome://tracing and Perfetto load directly): complete spans (ph "X") and
// instant events (ph "i"), one track (tid) per trial.
//
// Timestamps are SIMULATED seconds supplied by the caller (the session
// runners' elapsed_s bookkeeping), and the track is the thread-local trial
// track installed by ScopedTrack (obs/obs.hpp). Export sorts events by
// (track, per-track sequence), so two runs of the same workload produce
// BYTE-identical traces for any thread count — traces are diffable test
// artifacts, not just pictures. Wall-clock durations live in the service's
// flight recorder (obs/flight_recorder.hpp), not here.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ivnet::obs {

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
  std::uint64_t seq = 0;  ///< per-track order key
};

class Tracer {
 public:
  /// Simulated-time span/instant, seconds in, on the calling thread's
  /// current track (ScopedTrack).
  void sim_span(std::string_view name, std::string_view cat, double t0_s,
                double t1_s);
  void sim_instant(std::string_view name, std::string_view cat, double t_s);

  std::size_t event_count() const;

  /// The Chrome trace_event document, sorted by (track, seq) so the bytes
  /// are a pure function of the recorded work.
  std::string to_json() const;

 private:
  void push(TraceEvent event);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;  // guarded by mutex_
};

}  // namespace ivnet::obs
