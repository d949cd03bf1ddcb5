#include "ivnet/obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <limits>

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

}  // namespace

// ---------------------------------------------------------------------------
// WindowedCounter

WindowedCounter::WindowedCounter(double epoch_s, std::size_t epochs)
    : epoch_s_(epoch_s > 0.0 ? epoch_s : 1.0),
      counts_(std::max<std::size_t>(1, epochs), 0),
      epoch_of_(std::max<std::size_t>(1, epochs), -1) {}

void WindowedCounter::add(double t_s, std::uint64_t n) {
  const std::int64_t e = epoch_index(t_s, epoch_s_);
  std::lock_guard<std::mutex> lock(mutex_);
  latest_epoch_ = std::max(latest_epoch_, e);
  // Older than the retained span: drop (the window it belonged to is gone).
  if (e + static_cast<std::int64_t>(counts_.size()) <= latest_epoch_) return;
  const std::size_t slot =
      static_cast<std::size_t>(e) % counts_.size();
  if (epoch_of_[slot] != e) {
    // Recycle an expired epoch in place. epoch_of_[slot] < e always holds
    // here: a slot can only be occupied by epochs congruent mod ring size,
    // and anything newer would have failed the retention check above.
    epoch_of_[slot] = e;
    counts_[slot] = 0;
  }
  counts_[slot] += n;
}

std::uint64_t WindowedCounter::total_over(double window_s,
                                          double now_s) const {
  const std::int64_t now_epoch = query_epoch(now_s, epoch_s_);
  const std::size_t span = epochs_in_window(window_s, epoch_s_, counts_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < span; ++k) {
    const std::int64_t e = now_epoch - static_cast<std::int64_t>(k);
    if (e < 0) break;
    const std::size_t slot = static_cast<std::size_t>(e) % counts_.size();
    if (epoch_of_[slot] == e) total += counts_[slot];
  }
  return total;
}

double WindowedCounter::rate_over(double window_s, double now_s) const {
  if (!(window_s > 0.0)) return 0.0;
  return static_cast<double>(total_over(window_s, now_s)) / window_s;
}

// ---------------------------------------------------------------------------
// WindowedHistogram

WindowedHistogram::WindowedHistogram(std::vector<double> bounds,
                                     double epoch_s, std::size_t epochs)
    : bounds_(bounds.empty() ? Histogram::default_bounds()
                             : std::move(bounds)),
      epoch_s_(epoch_s > 0.0 ? epoch_s : 1.0),
      epochs_(std::max<std::size_t>(1, epochs)),
      ring_(epochs_) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void WindowedHistogram::reset_epoch(Epoch& e, std::int64_t epoch) const {
  e.epoch = epoch;
  e.count = 0;
  e.min = std::numeric_limits<double>::infinity();
  e.max = -std::numeric_limits<double>::infinity();
  e.counts.assign(bounds_.size() + 1, 0);
}

void WindowedHistogram::observe(double t_s, double value) {
  const std::int64_t e = epoch_index(t_s, epoch_s_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lock(mutex_);
  latest_epoch_ = std::max(latest_epoch_, e);
  if (e + static_cast<std::int64_t>(epochs_) <= latest_epoch_) return;
  Epoch& slot = ring_[static_cast<std::size_t>(e) % epochs_];
  if (slot.epoch != e) reset_epoch(slot, e);
  ++slot.counts[bucket];
  ++slot.count;
  slot.min = std::min(slot.min, value);
  slot.max = std::max(slot.max, value);
}

Histogram::View WindowedHistogram::view_over(double window_s,
                                             double now_s) const {
  const std::int64_t now_epoch = query_epoch(now_s, epoch_s_);
  const std::size_t span = epochs_in_window(window_s, epoch_s_, epochs_);
  Histogram::View view;
  view.min = std::numeric_limits<double>::infinity();
  view.max = -std::numeric_limits<double>::infinity();
  view.counts.assign(bounds_.size() + 1, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < span; ++k) {
    const std::int64_t e = now_epoch - static_cast<std::int64_t>(k);
    if (e < 0) break;
    const Epoch& slot = ring_[static_cast<std::size_t>(e) % epochs_];
    if (slot.epoch != e || slot.count == 0) continue;
    view.count += slot.count;
    view.min = std::min(view.min, slot.min);
    view.max = std::max(view.max, slot.max);
    for (std::size_t b = 0; b < view.counts.size(); ++b) {
      view.counts[b] += slot.counts[b];
    }
  }
  return view;
}

double WindowedHistogram::quantile_over(double window_s, double now_s,
                                        double q) const {
  return Histogram::quantile_of(view_over(window_s, now_s), bounds_, q);
}

// ---------------------------------------------------------------------------
// ExemplarStore

ExemplarStore::ExemplarStore(std::size_t k_per_epoch, double epoch_s,
                             std::size_t epochs)
    : k_per_epoch_(std::max<std::size_t>(1, k_per_epoch)),
      epoch_s_(epoch_s > 0.0 ? epoch_s : 1.0),
      ring_(std::max<std::size_t>(1, epochs)) {}

void ExemplarStore::offer(const Exemplar& exemplar) {
  const std::int64_t e = epoch_index(exemplar.t_s, epoch_s_);
  std::lock_guard<std::mutex> lock(mutex_);
  latest_epoch_ = std::max(latest_epoch_, e);
  if (e + static_cast<std::int64_t>(ring_.size()) <= latest_epoch_) return;
  Epoch& slot = ring_[static_cast<std::size_t>(e) % ring_.size()];
  if (slot.epoch != e) {
    slot.epoch = e;
    slot.items.clear();
  }
  if (slot.items.size() < k_per_epoch_) {
    slot.items.push_back(exemplar);
    return;
  }
  // Evict the fastest of the retained K if this one is slower. Ties keep
  // the incumbent, so the store is insensitive to completion-order races
  // only for strictly equal latencies (which identical requests on the sim
  // clock produce deterministically).
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < slot.items.size(); ++i) {
    if (slot.items[i].total_latency_s() <
        slot.items[fastest].total_latency_s()) {
      fastest = i;
    }
  }
  if (exemplar.total_latency_s() > slot.items[fastest].total_latency_s()) {
    slot.items[fastest] = exemplar;
  }
}

std::vector<Exemplar> ExemplarStore::slowest() const {
  std::vector<Exemplar> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Epoch& slot : ring_) {
      if (slot.epoch < 0) continue;
      out.insert(out.end(), slot.items.begin(), slot.items.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    if (a.total_latency_s() != b.total_latency_s()) {
      return a.total_latency_s() > b.total_latency_s();
    }
    return a.id < b.id;
  });
  return out;
}

std::size_t ExemplarStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Epoch& slot : ring_) {
    if (slot.epoch >= 0) n += slot.items.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// ServiceTelemetry

namespace {

/// Bucket ladder for the wall-latency windows: 10 us .. 10 s, 1-2-5.
std::vector<double> latency_bounds() {
  return Histogram::exponential_bounds(1e-5, 1e1);
}

}  // namespace

ServiceTelemetry::ServiceTelemetry(TelemetryConfig config)
    : config_(config),
      accepted_(config.epoch_s, config.epochs),
      completed_(config.epoch_s, config.epochs),
      shed_(config.epoch_s, config.epochs),
      queue_wait_(latency_bounds(), config.epoch_s, config.epochs),
      service_time_(latency_bounds(), config.epoch_s, config.epochs),
      exemplars_(config.exemplars_per_epoch, config.epoch_s, config.epochs) {}

void ServiceTelemetry::on_accept(double t_s) { accepted_.add(t_s); }

void ServiceTelemetry::on_shed(double t_s) { shed_.add(t_s); }

void ServiceTelemetry::on_complete(const Exemplar& exemplar) {
  completed_.add(exemplar.t_s);
  queue_wait_.observe(exemplar.t_s, exemplar.queue_wait_s);
  service_time_.observe(exemplar.t_s, exemplar.service_s);
  exemplars_.offer(exemplar);
}

std::string ServiceTelemetry::sample_json(double now_s) const {
  static constexpr double kWindows[] = {1.0, 10.0, 60.0};
  JsonWriter w;
  w.begin_object();
  w.field("t_s", now_s);
  w.key("windows").begin_array();
  for (const double window_s : kWindows) {
    const Histogram::View wait = queue_wait_.view_over(window_s, now_s);
    const Histogram::View service = service_time_.view_over(window_s, now_s);
    const std::uint64_t accepted = accepted_.total_over(window_s, now_s);
    const std::uint64_t completed = completed_.total_over(window_s, now_s);
    const std::uint64_t shed = shed_.total_over(window_s, now_s);
    w.begin_object();
    w.field("window_s", window_s);
    w.field("accepted", static_cast<std::size_t>(accepted));
    w.field("completed", static_cast<std::size_t>(completed));
    w.field("shed", static_cast<std::size_t>(shed));
    w.field("throughput_rps", static_cast<double>(completed) / window_s);
    w.field("shed_rps", static_cast<double>(shed) / window_s);
    w.field("queue_wait_p50_s",
            Histogram::quantile_of(wait, queue_wait_.bounds(), 0.50));
    w.field("queue_wait_p99_s",
            Histogram::quantile_of(wait, queue_wait_.bounds(), 0.99));
    w.field("service_p50_s",
            Histogram::quantile_of(service, service_time_.bounds(), 0.50));
    w.field("service_p99_s",
            Histogram::quantile_of(service, service_time_.bounds(), 0.99));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string ServiceTelemetry::exemplars_jsonl() const {
  std::string out;
  for (const Exemplar& e : exemplars_.slowest()) {
    out += exemplar_json(e);
    out += '\n';
  }
  return out;
}

TelemetryAnomaly ServiceTelemetry::check_anomalies(double now_s) const {
  TelemetryAnomaly anomaly;
  if (config_.shed_storm_rate_rps > 0.0) {
    anomaly.shed_storm =
        shed_.rate_over(1.0, now_s) >= config_.shed_storm_rate_rps;
  }
  if (config_.queue_saturated_p99_s > 0.0) {
    const Histogram::View wait = queue_wait_.view_over(1.0, now_s);
    anomaly.queue_saturated =
        wait.count > 0 &&
        Histogram::quantile_of(wait, queue_wait_.bounds(), 0.99) >=
            config_.queue_saturated_p99_s;
  }
  return anomaly;
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
  for (std::uint32_t s = 0; s < e.stages && s < Exemplar::kMaxStages; ++s) {
    w.value(e.stage_s[s]);
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
