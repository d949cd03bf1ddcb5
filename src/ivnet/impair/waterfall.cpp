#include "ivnet/impair/waterfall.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "ivnet/common/parallel.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/signal/gauss.hpp"

namespace ivnet {
namespace {

/// Trials per wave of run_sweep_items. The x13 campaigns' items (48 to
/// 2,000 trials) run in one or two waves; the per-trial slots of a wave stay
/// within items x kWaveTrials x 32 bytes.
constexpr std::size_t kWaveTrials = 1024;

/// One trial's outcome, folded into its item's SweepTally in trial order.
struct TrialOutcome {
  double backoff_s = 0.0;
  std::size_t bit_errors = 0;
  int retries = 0;
  int timeouts = 0;
  bool frame_error = false;
  bool success = false;
  bool retried_success = false;
};

double uplink_budget_db(const ImpairedLinkConfig& link) {
  const double array_gain_db =
      10.0 * std::log10(static_cast<double>(
                 std::max<std::size_t>(1, link.num_antennas)));
  return link.snr_db + array_gain_db - 2.0 * link.medium_loss_db;
}

TrialOutcome run_trial(const SweepItem& item, std::size_t t) {
  TrialOutcome out;
  std::uint64_t session_stream = t;
  if (item.ber_probe) {
    const BerProbeResult probe = ber_probe_trial(
        item.link, item.payload_bits, Rng::stream(item.stream_base, 2 * t));
    out.bit_errors = probe.bit_errors;
    out.frame_error = probe.frame_error;
    session_stream = 2 * t + 1;
  }
  Rng rng = Rng::stream(item.stream_base, session_stream);
  const auto report = run_impaired_link_session(item.link, rng);
  out.success = report.success;
  out.retried_success = report.success && report.recovery.retries > 0;
  out.retries = report.recovery.retries;
  out.timeouts = report.recovery.timeouts;
  out.backoff_s = report.recovery.backoff_total_s;
  return out;
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
      gen2::uplink_modulate(link.uplink, payload, link.blf_hz, fs);
  // +/-1 records: mean power exactly 1.
  const auto rx = chain.apply(std::move(tx), fs, trial_rng, nullptr, 1.0);

  BerProbeResult t;
  const auto d = gen2::uplink_decode(link.uplink, rx, payload_bits,
                                     link.blf_hz, fs, link.min_correlation);
  if (!d.valid || d.bits.size() != payload_bits) {
    t.bit_errors = payload_bits / 2;
    t.frame_error = true;
    return t;
  }
  for (std::size_t i = 0; i < payload_bits; ++i) {
    if (d.bits[i] != payload[i]) ++t.bit_errors;
  }
  t.frame_error = t.bit_errors > 0;
  return t;
}

std::vector<SweepTally> run_sweep_items(std::span<const SweepItem> items) {
  // Groups of items that share a stream base, in order of first appearance,
  // each with its largest trial count.
  std::vector<std::uint64_t> group_base;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_trials;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto it = std::find(group_base.begin(), group_base.end(),
                              items[i].stream_base);
    const auto g = static_cast<std::size_t>(it - group_base.begin());
    if (it == group_base.end()) {
      group_base.push_back(items[i].stream_base);
      groups.emplace_back();
      group_trials.push_back(0);
    }
    groups[g].push_back(i);
    group_trials[g] = std::max(group_trials[g], items[i].trials);
  }
  const std::size_t max_trials =
      group_trials.empty()
          ? 0
          : *std::max_element(group_trials.begin(), group_trials.end());

  // Trials run in waves of kWaveTrials: each wave dispatches and folds
  // trials [w, w + kWaveTrials) before the next starts, so the per-trial
  // slots stay bounded however many trials an item runs.
  const auto wave_trials = [](std::size_t trials, std::size_t w) {
    return trials > w ? std::min(trials - w, kWaveTrials) : std::size_t{0};
  };
  std::vector<SweepTally> tallies(items.size());
  std::vector<TrialOutcome> outcomes;
  for (std::size_t w = 0; w < max_trials; w += kWaveTrials) {
    // Item i's trial w + k lands in outcomes[first_outcome[i] + k].
    std::vector<std::size_t> first_outcome{0};
    for (const SweepItem& item : items) {
      first_outcome.push_back(first_outcome.back() +
                              wave_trials(item.trials, w));
    }
    // Unit u = (group g, trial w + u - first_unit[g]).
    std::vector<std::size_t> first_unit{0};
    for (const std::size_t trials : group_trials) {
      first_unit.push_back(first_unit.back() + wave_trials(trials, w));
    }
    outcomes.assign(first_outcome.back(), TrialOutcome{});
    detail::for_each_index_guarded(first_unit.back(), [&](std::size_t u) {
      const auto g = static_cast<std::size_t>(
          std::upper_bound(first_unit.begin(), first_unit.end(), u) -
          first_unit.begin() - 1);
      const std::size_t t = w + (u - first_unit[g]);
      // A lone item never repeats its own noise calls, so it needs no tape.
      std::optional<signal::NoiseTapeScope> tape;
      if (groups[g].size() > 1) tape.emplace();
      for (const std::size_t i : groups[g]) {
        if (t >= items[i].trials) continue;
        // A unique sim-trace track per (item, trial): the exported trace
        // orders by (track, seq), so it is byte-stable for any pool size.
        obs::ScopedTrack track(items[i].track_base +
                               static_cast<std::uint32_t>(t));
        outcomes[first_outcome[i] + (t - w)] = run_trial(items[i], t);
      }
    });

    for (std::size_t i = 0; i < items.size(); ++i) {
      SweepTally& tally = tallies[i];
      for (std::size_t k = first_outcome[i]; k < first_outcome[i + 1]; ++k) {
        const TrialOutcome& o = outcomes[k];
        tally.bit_errors += o.bit_errors;
        tally.frame_errors += o.frame_error ? 1 : 0;
        tally.successes += o.success ? 1 : 0;
        tally.retried_successes += o.retried_success ? 1 : 0;
        tally.retries += o.retries;
        tally.timeouts += o.timeouts;
        tally.backoff_s += o.backoff_s;
      }
    }
  }
  return tallies;
}

std::vector<std::vector<WaterfallPoint>> run_ber_waterfalls(
    std::span<const SweepRun<WaterfallConfig>> runs) {
  std::vector<SweepItem> items;
  for (const auto& run : runs) {
    obs::count("waterfall.sweeps");
    obs::count("waterfall.points", run.config.snr_points_db.size());
    const std::size_t trials = run.config.trials_per_point;
    std::size_t point = 0;
    for (const double snr_db : run.config.snr_points_db) {
      // Even streams feed the BER probe, odd ones the full session.
      SweepItem item{.link = run.config.link,
                     .stream_base = run.stream_base,
                     .trials = trials,
                     .ber_probe = true,
                     .payload_bits = run.config.payload_bits,
                     .track_base = run.track_base};
      item.link.snr_db = snr_db;
      item.track_base += static_cast<std::uint32_t>(point++ * trials);
      items.push_back(std::move(item));
    }
  }
  const std::vector<SweepTally> tallies = run_sweep_items(items);

  std::vector<std::vector<WaterfallPoint>> sweeps;
  std::size_t k = 0;
  for (const auto& run : runs) {
    auto& points = sweeps.emplace_back();
    const std::size_t trials = run.config.trials_per_point;
    const double n = static_cast<double>(trials);
    for (const double snr_db : run.config.snr_points_db) {
      const SweepTally& total = tallies[k++];
      WaterfallPoint p;
      p.snr_db = snr_db;
      p.trials = trials;
      p.ber = static_cast<double>(total.bit_errors) /
              (n * static_cast<double>(run.config.payload_bits));
      p.per = static_cast<double>(total.frame_errors) / n;
      p.session_success_rate = static_cast<double>(total.successes) / n;
      p.mean_retries = static_cast<double>(total.retries) / n;
      p.mean_timeouts = static_cast<double>(total.timeouts) / n;
      points.push_back(p);
    }
  }
  return sweeps;
}

std::vector<std::vector<MatrixCell>> run_session_matrices(
    std::span<const SweepRun<MatrixConfig>> runs) {
  std::vector<SweepItem> items;
  for (const auto& run : runs) {
    obs::count("matrix.sweeps");
    const MatrixConfig& config = run.config;
    const std::size_t trials = config.trials_per_cell;
    std::size_t cell = 0;
    for (const auto& medium : config.media) {
      for (const double snr_db : config.snr_points_db) {
        for (const std::size_t antennas : config.antenna_counts) {
          SweepItem item{.link = config.link,
                         .stream_base = run.stream_base,
                         .trials = trials,
                         .track_base = run.track_base};
          item.link.medium_loss_db = medium.loss_db;
          item.link.snr_db = snr_db;
          item.link.num_antennas = antennas;
          item.track_base += static_cast<std::uint32_t>(cell++ * trials);
          items.push_back(std::move(item));
        }
      }
    }
  }
  const std::vector<SweepTally> tallies = run_sweep_items(items);

  std::vector<std::vector<MatrixCell>> matrices;
  std::size_t k = 0;
  for (const auto& run : runs) {
    auto& cells = matrices.emplace_back();
    const MatrixConfig& config = run.config;
    const std::size_t trials = config.trials_per_cell;
    const double n = static_cast<double>(trials);
    for (const auto& medium : config.media) {
      for (const double snr_db : config.snr_points_db) {
        for (const std::size_t antennas : config.antenna_counts) {
          const SweepTally& total = tallies[k++];
          MatrixCell cell;
          cell.medium = medium.name;
          cell.medium_loss_db = medium.loss_db;
          cell.snr_db = snr_db;
          cell.num_antennas = antennas;
          cell.trials = trials;
          cell.successes = total.successes;
          cell.success_rate = static_cast<double>(total.successes) / n;
          cell.mean_retries = static_cast<double>(total.retries) / n;
          cell.mean_timeouts = static_cast<double>(total.timeouts) / n;
          cell.recovered_by_retry = total.retried_successes;
          cells.push_back(cell);
        }
      }
    }
  }
  return matrices;
}

std::vector<DepthPoint> run_success_vs_depth(const DepthSweepConfig& config,
                                             Rng& rng) {
  const SweepRun<DepthSweepConfig> run{config, rng(), 0};
  return std::move(run_depth_sweeps({&run, 1}).front());
}

std::vector<std::vector<DepthPoint>> run_depth_sweeps(
    std::span<const SweepRun<DepthSweepConfig>> runs) {
  std::vector<SweepItem> items;
  for (const auto& run : runs) {
    obs::count("depth.sweeps");
    const DepthSweepConfig& config = run.config;
    const std::size_t trials = config.trials_per_point;
    std::size_t point = 0;
    for (const double depth_m : config.depths_m) {
      SweepItem item{.link = config.link,
                     .stream_base = run.stream_base,
                     .trials = trials,
                     .track_base = run.track_base};
      item.link.medium_loss_db =
          medium_loss_at_depth_db(config.medium, config.freq_hz, depth_m);
      item.track_base += static_cast<std::uint32_t>(point++ * trials);
      items.push_back(std::move(item));
    }
  }
  const std::vector<SweepTally> tallies = run_sweep_items(items);

  std::vector<std::vector<DepthPoint>> curves;
  std::size_t k = 0;
  for (const auto& run : runs) {
    auto& points = curves.emplace_back();
    const double n = static_cast<double>(run.config.trials_per_point);
    for (const double depth_m : run.config.depths_m) {
      const SweepItem& item = items[k];
      const SweepTally& total = tallies[k++];
      DepthPoint p;
      p.depth_m = depth_m;
      p.medium_loss_db = item.link.medium_loss_db;
      p.success_rate = static_cast<double>(total.successes) / n;
      p.mean_retries = static_cast<double>(total.retries) / n;
      points.push_back(p);
    }
  }
  return curves;
}

}  // namespace ivnet
