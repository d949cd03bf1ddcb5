#include "ivnet/obs/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "ivnet/common/json.hpp"

namespace ivnet::obs {
namespace {

/// The epoch covering t_s. Negative times clamp to epoch 0 so a caller
/// feeding "seconds since service start" can never rotate backwards past
/// the origin.
std::int64_t epoch_index(double t_s, double epoch_s) {
  if (!(t_s > 0.0)) return 0;
  return static_cast<std::int64_t>(t_s / epoch_s);
}

/// Anchor epoch for a trailing window ending at now_s: the epoch covering
/// now_s — except that an exact epoch boundary anchors to the epoch that
/// just closed, since the window (now - W, now] contains none of the new
/// epoch's interior. Keeps grid-aligned samplers (t = k * interval) seeing
/// the epoch they just finished instead of an empty fresh one.
std::int64_t query_epoch(double now_s, double epoch_s) {
  std::int64_t e = epoch_index(now_s, epoch_s);
  // e = floor(now/epoch) implies now >= e*epoch; equality iff boundary.
  if (e > 0 && now_s <= static_cast<double>(e) * epoch_s) --e;
  return e;
}

/// Number of whole epochs a trailing window of `window_s` covers (>= 1).
std::size_t epochs_in_window(double window_s, double epoch_s,
                             std::size_t ring_size) {
  const double ratio = window_s / epoch_s;
  std::size_t n = static_cast<std::size_t>(std::ceil(ratio - 1e-9));
  n = std::max<std::size_t>(1, n);
  return std::min(n, ring_size);
}

/// An empty latency row: zero counts over latency_bounds().
Histogram::View empty_row() {
  Histogram::View row;
  row.counts.assign(latency_bounds().size() + 1, 0);
  return row;
}

/// Slowest first; equal latencies by ascending id.
bool slower(const Exemplar& a, const Exemplar& b) {
  if (a.total_latency_s() != b.total_latency_s()) {
    return a.total_latency_s() > b.total_latency_s();
  }
  return a.id < b.id;
}

}  // namespace

const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds =
      Histogram::exponential_bounds(1e-5, 1e1);
  return bounds;
}

ServiceTelemetry::ServiceTelemetry(double epoch_s)
    : epoch_s_(epoch_s > 0.0 ? epoch_s : 1.0), ring_(kEpochs) {}

ServiceTelemetry::Epoch* ServiceTelemetry::ingest_epoch(double t_s) {
  const std::int64_t e = epoch_index(t_s, epoch_s_);
  latest_epoch_ = std::max(latest_epoch_, e);
  // Older than the retained span: drop (the window it belonged to is gone).
  if (e + static_cast<std::int64_t>(kEpochs) <= latest_epoch_) return nullptr;
  Epoch& slot = ring_[static_cast<std::size_t>(e) % kEpochs];
  if (slot.epoch != e) {
    // Recycle an expired (or never used) slot. slot.epoch < e always holds
    // here: a slot only ever holds epochs congruent mod kEpochs, and a newer
    // one would have failed the retention check above.
    slot.epoch = e;
    slot.accepted = 0;
    slot.shed = 0;
    slot.queue_wait = empty_row();
    slot.service_time = empty_row();
    slot.slowest.clear();
  }
  return &slot;
}

void ServiceTelemetry::on_accept(double t_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Epoch* epoch = ingest_epoch(t_s)) ++epoch->accepted;
}

void ServiceTelemetry::on_shed(double t_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Epoch* epoch = ingest_epoch(t_s)) ++epoch->shed;
}

TelemetryAnomaly ServiceTelemetry::on_complete(const Exemplar& exemplar) {
  const std::vector<double>& bounds = latency_bounds();
  const std::size_t wait_bucket =
      Histogram::View::bucket_of(bounds, exemplar.queue_wait_s);
  const std::size_t service_bucket =
      Histogram::View::bucket_of(bounds, exemplar.service_s);
  std::lock_guard<std::mutex> lock(mutex_);
  if (Epoch* epoch = ingest_epoch(exemplar.t_s)) {
    epoch->queue_wait.add(wait_bucket, exemplar.queue_wait_s);
    epoch->service_time.add(service_bucket, exemplar.service_s);
    std::vector<Exemplar>& kept = epoch->slowest;
    if (kept.size() < kExemplarsPerEpoch) {
      kept.push_back(exemplar);
    } else {
      // Evict the fastest of the retained K if this one is slower. Ties
      // keep the incumbent, so the ring is insensitive to completion-order
      // races only for strictly equal latencies (which identical requests
      // on the sim clock produce deterministically).
      const auto fastest = std::min_element(
          kept.begin(), kept.end(), [](const Exemplar& a, const Exemplar& b) {
            return a.total_latency_s() < b.total_latency_s();
          });
      if (exemplar.total_latency_s() > fastest->total_latency_s()) {
        *fastest = exemplar;
      }
    }
  }

  // Threshold detectors over the trailing 1 s window; latch edges so one
  // overload episode starts one anomaly, not one per completion.
  const TelemetryWindow last = merge(1.0, exemplar.t_s);
  TelemetryAnomaly verdict;
  verdict.shed_storm = static_cast<double>(last.shed) >= kShedStormRps;
  verdict.queue_saturated =
      last.queue_wait.count > 0 &&
      Histogram::quantile_of(last.queue_wait, bounds, 0.99) >=
          kQueueSaturatedP99S;
  const bool started = verdict.any() && !anomalous_;
  anomalous_ = verdict.any();
  if (!started) return {};
  ++episodes_;
  return verdict;
}

TelemetryWindow ServiceTelemetry::merge(double window_s, double now_s) const {
  const std::int64_t now_epoch = query_epoch(now_s, epoch_s_);
  const std::size_t span = epochs_in_window(window_s, epoch_s_, kEpochs);
  TelemetryWindow window;
  window.queue_wait = empty_row();
  window.service_time = empty_row();
  for (std::size_t k = 0; k < span; ++k) {
    const std::int64_t e = now_epoch - static_cast<std::int64_t>(k);
    if (e < 0) break;
    const Epoch& slot = ring_[static_cast<std::size_t>(e) % kEpochs];
    if (slot.epoch != e) continue;
    window.accepted += slot.accepted;
    window.shed += slot.shed;
    window.queue_wait.merge(slot.queue_wait);
    window.service_time.merge(slot.service_time);
  }
  return window;
}

TelemetryWindow ServiceTelemetry::window(double window_s, double now_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return merge(window_s, now_s);
}

std::string ServiceTelemetry::sample_json(double now_s) const {
  static constexpr double kWindows[] = {1.0, 10.0, 60.0};
  const std::vector<double>& bounds = latency_bounds();
  JsonWriter w;
  w.begin_object();
  w.field("t_s", now_s);
  w.key("windows").begin_array();
  for (const double window_s : kWindows) {
    const TelemetryWindow win = window(window_s, now_s);
    w.begin_object();
    w.field("window_s", window_s);
    w.field("accepted", static_cast<std::size_t>(win.accepted));
    w.field("completed", static_cast<std::size_t>(win.completed()));
    w.field("shed", static_cast<std::size_t>(win.shed));
    w.field("throughput_rps",
            static_cast<double>(win.completed()) / window_s);
    w.field("shed_rps", static_cast<double>(win.shed) / window_s);
    w.field("queue_wait_p50_s",
            Histogram::quantile_of(win.queue_wait, bounds, 0.50));
    w.field("queue_wait_p99_s",
            Histogram::quantile_of(win.queue_wait, bounds, 0.99));
    w.field("service_p50_s",
            Histogram::quantile_of(win.service_time, bounds, 0.50));
    w.field("service_p99_s",
            Histogram::quantile_of(win.service_time, bounds, 0.99));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<Exemplar> ServiceTelemetry::exemplars() const {
  std::vector<Exemplar> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Epoch& slot : ring_) {
      out.insert(out.end(), slot.slowest.begin(), slot.slowest.end());
    }
  }
  std::sort(out.begin(), out.end(), slower);
  return out;
}

std::string ServiceTelemetry::exemplars_jsonl() const {
  std::string out;
  for (const Exemplar& e : exemplars()) {
    out += exemplar_json(e);
    out += '\n';
  }
  return out;
}

std::uint64_t ServiceTelemetry::anomaly_episodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return episodes_;
}

// ---------------------------------------------------------------------------
// Exemplar serialization

std::string exemplar_json(const Exemplar& e) {
  JsonWriter w;
  w.begin_object();
  w.field("id", static_cast<std::size_t>(e.id));
  w.field("kind", static_cast<int>(e.kind));
  w.field("trials", static_cast<std::size_t>(e.trials));
  w.field("antennas", static_cast<std::size_t>(e.antennas));
  // 64-bit identity goes through strings: the flat scanner reads numbers
  // as doubles, which silently rounds seeds above 2^53.
  w.field("seed", std::to_string(e.seed));
  w.field("snr_db", e.snr_db);
  w.field("medium_loss_db", e.medium_loss_db);
  w.field("t_s", e.t_s);
  w.field("queue_wait_s", e.queue_wait_s);
  w.field("service_s", e.service_s);
  w.key("stage_s").begin_array();
  for (std::uint32_t s = 0; s < e.stages.count && s < StageSpans::kMax;
       ++s) {
    w.value(e.stages.span_s[s]);
  }
  w.end_array();
  w.field("response_hash", std::to_string(e.response_hash));
  w.end_object();
  return w.str();
}

namespace {

/// The raw value after `"key":`, up to the next `,` or `}`, with JSON
/// whitespace trimmed; empty when the key is absent.
std::string_view find_token(std::string_view line, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  std::string_view value = line.substr(at + needle.size());
  value = value.substr(0, value.find_first_of(",}"));
  constexpr std::string_view kSpace = " \t\r\n";
  value.remove_prefix(std::min(value.find_first_not_of(kSpace), value.size()));
  value = value.substr(0, value.find_last_not_of(kSpace) + 1);
  return value;
}

/// Parses all of `text` as a decimal integer that fits T: no sign,
/// fraction, exponent or trailing character.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc() && end == last;
}

/// Parses all of `text` as a finite JSON-style number: no trailing
/// character, no inf or nan.
bool parse_whole_finite(std::string_view text, double& out) {
  return parse_whole(text, out) && std::isfinite(out);
}

}  // namespace

bool parse_exemplar_line(std::string_view line, Exemplar& out) {
  Exemplar e;
  if (!parse_whole(find_token(line, "id"), e.id) ||
      !parse_whole(find_token(line, "kind"), e.kind) ||
      !parse_whole(find_token(line, "trials"), e.trials) ||
      !parse_whole(find_token(line, "antennas"), e.antennas) ||
      !parse_whole(json_find_string(line, "seed", ""), e.seed) ||
      !parse_whole(json_find_string(line, "response_hash", ""),
                   e.response_hash) ||
      !parse_whole_finite(find_token(line, "snr_db"), e.snr_db) ||
      !parse_whole_finite(find_token(line, "medium_loss_db"),
                          e.medium_loss_db)) {
    return false;
  }
  e.t_s = json_find_number(line, "t_s", 0.0);
  e.queue_wait_s = json_find_number(line, "queue_wait_s", 0.0);
  e.service_s = json_find_number(line, "service_s", 0.0);
  out = e;
  return true;
}

}  // namespace ivnet::obs
