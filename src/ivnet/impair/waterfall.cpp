#include "ivnet/impair/waterfall.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ivnet/common/parallel.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

/// Per-point accumulator folded deterministically by parallel_reduce.
struct Tally {
  std::size_t bit_errors = 0;
  std::size_t frame_errors = 0;
  std::size_t successes = 0;
  std::size_t retried_successes = 0;
  long retries = 0;
  long timeouts = 0;
};

Tally combine(Tally a, const Tally& b) {
  a.bit_errors += b.bit_errors;
  a.frame_errors += b.frame_errors;
  a.successes += b.successes;
  a.retried_successes += b.retried_successes;
  a.retries += b.retries;
  a.timeouts += b.timeouts;
  return a;
}

double uplink_budget_db(const ImpairedLinkConfig& link) {
  const double array_gain_db =
      10.0 * std::log10(static_cast<double>(
                 std::max<std::size_t>(1, link.num_antennas)));
  return link.snr_db + array_gain_db - 2.0 * link.medium_loss_db;
}

/// The raw-BER probe projected onto a tally.
Tally ber_trial(const ImpairedLinkConfig& link, std::size_t payload_bits,
                Rng trial_rng) {
  const BerProbeResult r = ber_probe_trial(link, payload_bits, trial_rng);
  Tally t;
  t.bit_errors = r.bit_errors;
  t.frame_errors = r.frame_error ? 1 : 0;
  return t;
}

Tally session_trial(const ImpairedLinkConfig& link, Rng trial_rng) {
  const auto report = run_impaired_link_session(link, trial_rng);
  Tally t;
  t.successes = report.success ? 1 : 0;
  t.retried_successes = (report.success && report.recovery.retries > 0) ? 1 : 0;
  t.retries = report.recovery.retries;
  t.timeouts = report.recovery.timeouts;
  return t;
}

}  // namespace

double medium_loss_at_depth_db(const Medium& medium, double freq_hz,
                               double depth_m) {
  return medium.power_loss_db_per_m(freq_hz) * depth_m +
         boundary_loss_db(media::air(), medium, freq_hz);
}

BerProbeResult ber_probe_trial(const ImpairedLinkConfig& link,
                               std::size_t payload_bits, Rng trial_rng) {
  gen2::Bits payload(payload_bits);
  for (auto&& b : payload) b = (trial_rng() & 1u) != 0;
  ImpairmentConfig impair = link.impair;
  impair.snr_db = uplink_budget_db(link);
  const ImpairmentChain chain(impair);
  const double fs = link.sample_rate_hz;
  std::vector<double> tx =
      link.uplink == gen2::Miller::kFm0
          ? gen2::fm0_modulate(payload, link.blf_hz, fs)
          : gen2::miller_modulate(link.uplink, payload, link.blf_hz, fs);
  // +/-1 records: mean power exactly 1.
  const auto rx = chain.apply(std::move(tx), fs, trial_rng, nullptr, 1.0);

  BerProbeResult t;
  bool valid = false;
  gen2::Bits decoded;
  if (link.uplink == gen2::Miller::kFm0) {
    auto d = gen2::fm0_decode(rx, payload_bits, link.blf_hz, fs,
                              link.min_correlation);
    valid = d.valid;
    decoded = std::move(d.bits);
  } else {
    auto d = gen2::miller_decode(link.uplink, rx, payload_bits, link.blf_hz,
                                 fs, link.min_correlation);
    valid = d.valid;
    decoded = std::move(d.bits);
  }
  if (!valid || decoded.size() != payload_bits) {
    t.bit_errors = payload_bits / 2;
    t.frame_error = true;
    return t;
  }
  for (std::size_t i = 0; i < payload_bits; ++i) {
    if (decoded[i] != payload[i]) ++t.bit_errors;
  }
  t.frame_error = t.bit_errors > 0;
  return t;
}

std::vector<WaterfallPoint> run_ber_waterfall(const WaterfallConfig& config,
                                              Rng& rng) {
  obs::ScopedSpan sweep_span("waterfall.sweep", "impair");
  obs::count("waterfall.sweeps");
  obs::count("waterfall.points", config.snr_points_db.size());
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_point;
  std::vector<WaterfallPoint> points;
  points.reserve(config.snr_points_db.size());
  std::size_t point_index = 0;
  for (const double snr_db : config.snr_points_db) {
    ImpairedLinkConfig link = config.link;
    link.snr_db = snr_db;
    // Streams keyed by trial index only: every SNR point replays the same
    // noise shapes at its own power (common random numbers). Even indices
    // feed the BER probe, odd ones the full session.
    const std::size_t track_base = point_index * trials;
    const Tally total = parallel_reduce<Tally>(
        trials, Tally{},
        [&](std::size_t t) {
          // A unique sim-trace track per (point, trial): the exported trace
          // orders by (track, seq), so it is byte-stable for any pool size.
          obs::ScopedTrack track(static_cast<std::uint32_t>(track_base + t));
          Tally tt =
              ber_trial(link, config.payload_bits, Rng::stream(base, 2 * t));
          return combine(tt,
                         session_trial(link, Rng::stream(base, 2 * t + 1)));
        },
        combine);
    ++point_index;
    WaterfallPoint p;
    p.snr_db = snr_db;
    p.trials = trials;
    const double n = static_cast<double>(trials);
    p.ber = static_cast<double>(total.bit_errors) /
            (n * static_cast<double>(config.payload_bits));
    p.per = static_cast<double>(total.frame_errors) / n;
    p.session_success_rate = static_cast<double>(total.successes) / n;
    p.mean_retries = static_cast<double>(total.retries) / n;
    p.mean_timeouts = static_cast<double>(total.timeouts) / n;
    points.push_back(p);
  }
  return points;
}

std::vector<MatrixCell> run_session_matrix(const MatrixConfig& config,
                                           Rng& rng) {
  obs::ScopedSpan sweep_span("matrix.sweep", "impair");
  obs::count("matrix.sweeps");
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_cell;
  std::vector<MatrixCell> cells;
  cells.reserve(config.media.size() * config.snr_points_db.size() *
                config.antenna_counts.size());
  std::size_t cell_index = 0;
  for (const auto& medium : config.media) {
    for (const double snr_db : config.snr_points_db) {
      for (const std::size_t antennas : config.antenna_counts) {
        ImpairedLinkConfig link = config.link;
        link.medium_loss_db = medium.loss_db;
        link.snr_db = snr_db;
        link.num_antennas = antennas;
        const std::size_t track_base = cell_index * trials;
        const Tally total = parallel_reduce<Tally>(
            trials, Tally{},
            [&](std::size_t t) {
              // Trial-keyed streams shared by every cell: the whole matrix
              // replays the same noise realizations per trial slot.
              obs::ScopedTrack track(
                  static_cast<std::uint32_t>(track_base + t));
              return session_trial(link, Rng::stream(base, t));
            },
            combine);
        ++cell_index;
        MatrixCell cell;
        cell.medium = medium.name;
        cell.medium_loss_db = medium.loss_db;
        cell.snr_db = snr_db;
        cell.num_antennas = antennas;
        cell.trials = trials;
        cell.successes = total.successes;
        const double n = static_cast<double>(trials);
        cell.success_rate = static_cast<double>(total.successes) / n;
        cell.mean_retries = static_cast<double>(total.retries) / n;
        cell.mean_timeouts = static_cast<double>(total.timeouts) / n;
        cell.recovered_by_retry = total.retried_successes;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::vector<DepthPoint> run_success_vs_depth(const DepthSweepConfig& config,
                                             Rng& rng) {
  obs::ScopedSpan sweep_span("depth.sweep", "impair");
  obs::count("depth.sweeps");
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_point;
  std::vector<DepthPoint> points;
  points.reserve(config.depths_m.size());
  std::size_t point_index = 0;
  for (const double depth_m : config.depths_m) {
    ImpairedLinkConfig link = config.link;
    link.medium_loss_db =
        medium_loss_at_depth_db(config.medium, config.freq_hz, depth_m);
    const std::size_t track_base = point_index * trials;
    const Tally total = parallel_reduce<Tally>(
        trials, Tally{},
        [&](std::size_t t) {
          obs::ScopedTrack track(static_cast<std::uint32_t>(track_base + t));
          return session_trial(link, Rng::stream(base, t));
        },
        combine);
    ++point_index;
    DepthPoint p;
    p.depth_m = depth_m;
    p.medium_loss_db = link.medium_loss_db;
    const double n = static_cast<double>(trials);
    p.success_rate = static_cast<double>(total.successes) / n;
    p.mean_retries = static_cast<double>(total.retries) / n;
    points.push_back(p);
  }
  return points;
}

std::string waterfall_json(const std::vector<WaterfallPoint>& points) {
  JsonWriter w;
  w.begin_object().key("waterfall").begin_array();
  for (const auto& p : points) {
    w.begin_object()
        .field("snr_db", p.snr_db)
        .field("ber", p.ber)
        .field("per", p.per)
        .field("session_success_rate", p.session_success_rate)
        .field("mean_retries", p.mean_retries)
        .field("mean_timeouts", p.mean_timeouts)
        .field("trials", p.trials)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string matrix_json(const std::vector<MatrixCell>& cells) {
  JsonWriter w;
  w.begin_object().key("matrix").begin_array();
  for (const auto& c : cells) {
    w.begin_object()
        .field("medium", c.medium)
        .field("medium_loss_db", c.medium_loss_db)
        .field("snr_db", c.snr_db)
        .field("num_antennas", c.num_antennas)
        .field("trials", c.trials)
        .field("successes", c.successes)
        .field("success_rate", c.success_rate)
        .field("mean_retries", c.mean_retries)
        .field("mean_timeouts", c.mean_timeouts)
        .field("recovered_by_retry", c.recovered_by_retry)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string depth_sweep_json(const std::vector<DepthPoint>& points) {
  JsonWriter w;
  w.begin_object().key("depth_sweep").begin_array();
  for (const auto& p : points) {
    w.begin_object()
        .field("depth_m", p.depth_m)
        .field("medium_loss_db", p.medium_loss_db)
        .field("success_rate", p.success_rate)
        .field("mean_retries", p.mean_retries)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace ivnet
