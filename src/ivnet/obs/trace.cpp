#include "ivnet/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "ivnet/common/json.hpp"

namespace ivnet::obs {
namespace {

/// Sim-mode track state: ScopedTrack (obs/obs.hpp) installs the trial's
/// track id; each sim event takes the next per-track sequence number. Both
/// are thread-local, so concurrent trials never share an order key.
thread_local std::uint32_t t_sim_track = 0;
thread_local std::uint64_t t_sim_seq = 0;

/// Wall-mode track: a small per-thread id in first-event order.
std::atomic<std::uint32_t> g_next_wall_track{0};
thread_local std::uint32_t t_wall_track = 0;
thread_local bool t_wall_track_assigned = false;

std::uint32_t wall_track() {
  if (!t_wall_track_assigned) {
    t_wall_track = g_next_wall_track.fetch_add(1, std::memory_order_relaxed);
    t_wall_track_assigned = true;
  }
  return t_wall_track;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace detail {

std::uint32_t current_sim_track() { return t_sim_track; }
std::uint64_t current_sim_seq() { return t_sim_seq; }

void set_sim_track(std::uint32_t track, std::uint64_t seq) {
  t_sim_track = track;
  t_sim_seq = seq;
}

}  // namespace detail

Tracer::Tracer(TraceClock clock) : clock_(clock), epoch_ns_(steady_ns()) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

void Tracer::push(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::wall_span(std::string_view name, std::string_view cat,
                       double ts_us, double dur_us) {
  if (clock_ != TraceClock::kWall) return;
  push(TraceEvent{.name = std::string(name),
                  .cat = std::string(cat),
                  .ph = 'X',
                  .ts_us = ts_us,
                  .dur_us = dur_us,
                  .track = wall_track()});
}

void Tracer::sim_span(std::string_view name, std::string_view cat, double t0_s,
                      double t1_s) {
  if (clock_ != TraceClock::kSim) return;
  push(TraceEvent{.name = std::string(name),
                  .cat = std::string(cat),
                  .ph = 'X',
                  .ts_us = t0_s * 1e6,
                  .dur_us = (t1_s - t0_s) * 1e6,
                  .track = t_sim_track,
                  .seq = t_sim_seq++});
}

void Tracer::sim_instant(std::string_view name, std::string_view cat,
                         double t_s) {
  if (clock_ != TraceClock::kSim) return;
  push(TraceEvent{.name = std::string(name),
                  .cat = std::string(cat),
                  .ph = 'i',
                  .ts_us = t_s * 1e6,
                  .track = t_sim_track,
                  .seq = t_sim_seq++});
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::string Tracer::to_json() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  if (clock_ == TraceClock::kSim) {
    // (track, seq) is a total order per trial regardless of which pool
    // thread ran it: the exported bytes depend only on the simulated work.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.track != b.track) return a.track < b.track;
                       return a.seq < b.seq;
                     });
  } else {
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.track != b.track) return a.track < b.track;
                       return a.ts_us < b.ts_us;
                     });
  }

  JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.field("name", e.name);
    w.field("cat", e.cat.empty() ? std::string_view("ivnet")
                                 : std::string_view(e.cat));
    w.field("ph", std::string_view(&e.ph, 1));
    w.field("pid", 0);
    w.field("tid", static_cast<std::size_t>(e.track));
    w.field("ts", e.ts_us);
    if (e.ph == 'X') w.field("dur", e.dur_us);
    if (e.ph == 'i') w.field("s", "t");  // thread-scoped instant
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ivnet::obs
