#include "ivnet/obs/trace.hpp"

#include <algorithm>

#include "ivnet/common/json.hpp"

namespace ivnet::obs {
namespace {

/// Track state: ScopedTrack (obs/obs.hpp) installs the trial's track id;
/// each event takes the next per-track sequence number. Both are
/// thread-local, so concurrent trials never share an order key.
thread_local std::uint32_t t_sim_track = 0;
thread_local std::uint64_t t_sim_seq = 0;

}  // namespace

namespace detail {

std::uint32_t current_sim_track() { return t_sim_track; }
std::uint64_t current_sim_seq() { return t_sim_seq; }

void set_sim_track(std::uint32_t track, std::uint64_t seq) {
  t_sim_track = track;
  t_sim_seq = seq;
}

}  // namespace detail

void Tracer::push(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::sim_span(std::string_view name, std::string_view cat, double t0_s,
                      double t1_s) {
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
  // (track, seq) is a total order per trial regardless of which pool
  // thread ran it: the exported bytes depend only on the simulated work.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.seq < b.seq;
                   });

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
