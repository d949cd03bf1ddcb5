#include "ivnet/sim/planner.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "ivnet/cib/objective.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/harvester/harvester.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/calibration.hpp"

namespace ivnet {
namespace {

/// Fraction of blind-channel draws in which the CIB peak voltage clears the
/// tag's threshold.
double power_up_probability(const Scenario& scenario, const TagConfig& tag,
                            const FrequencyPlan& plan, std::size_t trials,
                            Rng& rng) {
  const std::size_t ok = power_up_count(scenario, tag, plan, trials, rng);
  return static_cast<double>(ok) / static_cast<double>(trials);
}

/// Median energy the tag banks over one CIB period.
double median_energy_per_period(const Scenario& scenario, const TagConfig& tag,
                                const FrequencyPlan& plan, std::size_t trials,
                                Rng& rng) {
  const Harvester harvester(tag.harvester);
  const std::uint64_t base = rng();
  std::vector<double> energies(trials);
  parallel_for(trials, [&](std::size_t k) {
    Rng trial_rng = Rng::stream(base, k);
    const Channel channel = draw_scenario_channel(
        scenario, tag, plan.num_antennas(), plan.center_hz(), trial_rng);
    std::vector<double> amps(plan.num_antennas());
    std::vector<double> phases(plan.num_antennas());
    for (std::size_t i = 0; i < plan.num_antennas(); ++i) {
      const cplx h = channel.gain(i, plan.offsets_hz()[i]);
      amps[i] = std::abs(h);
      phases[i] = std::arg(h);
    }
    const auto env = cib_envelope(plan.offsets_hz(), phases, amps, 1.0, 10000);
    energies[k] = harvester.run(env, 10e3).harvested_energy_j;
  });
  return median(energies);
}

}  // namespace

DeploymentPlan plan_deployment(const Scenario& scenario, const TagConfig& tag,
                               const DeploymentRequirements& req, Rng& rng) {
  DeploymentPlan result;
  const auto full_plan = FrequencyPlan::paper_default();
  constexpr std::size_t kTrials = 25;

  const std::size_t limit =
      std::min<std::size_t>(req.max_antennas, full_plan.num_antennas());
  for (std::size_t n = 1; n <= limit; ++n) {
    const auto plan = full_plan.truncated(n);
    const double p = power_up_probability(scenario, tag, plan, kTrials, rng);
    if (p < req.min_power_up_probability) continue;

    result.antennas = n;
    result.plan = plan;
    result.power_up_probability = p;
    result.energy_per_period_j =
        median_energy_per_period(scenario, tag, plan, kTrials, rng);

    // Cadence: one read costs burst_energy; periods needed per read.
    if (result.energy_per_period_j <= 0.0) continue;
    const double periods_per_read =
        std::max(1.0, std::ceil(req.burst_energy_j /
                                result.energy_per_period_j));
    result.charge_periods_per_read =
        static_cast<std::size_t>(periods_per_read);
    const double period_s =
        plan.period_s() > 0.0 ? plan.period_s() : 1.0;
    result.expected_reads_per_minute =
        60.0 / (periods_per_read * period_s);
    if (result.expected_reads_per_minute < req.min_reads_per_minute) {
      result.limiting_factor =
          "cadence: harvested energy per period too low for the required "
          "reads/minute";
      continue;
    }

    result.exposure = assess_exposure(
        n, dbm_to_watts(calib::kTxPowerDbm), calib::kTxGainDbi,
        req.skin_distance_m, media::skin(), plan.center_hz(),
        req.tx_duty_cycle);
    if (!result.exposure.mpe_ok || !result.exposure.sar_ok) {
      result.limiting_factor = "exposure: MPE/SAR limit at this distance";
      continue;
    }

    result.feasible = true;
    result.limiting_factor.clear();
    return result;
  }

  if (result.limiting_factor.empty()) {
    result.limiting_factor =
        "power-up: the tag cannot be powered at this depth within the "
        "antenna budget";
  }
  result.feasible = false;
  return result;
}

std::string describe(const DeploymentPlan& plan) {
  char buf[512];
  if (!plan.feasible) {
    std::snprintf(buf, sizeof(buf), "infeasible (%s)",
                  plan.limiting_factor.c_str());
    return buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "%zu antennas; power-up %.0f%%; %.2g J/period banked; one read per "
      "%zu period(s) (~%.1f reads/min); exposure: MPE %s, SAR %s, EIRP %s",
      plan.antennas, 100.0 * plan.power_up_probability,
      plan.energy_per_period_j, plan.charge_periods_per_read,
      plan.expected_reads_per_minute, plan.exposure.mpe_ok ? "ok" : "OVER",
      plan.exposure.sar_ok ? "ok" : "OVER",
      plan.exposure.eirp_ok ? "ok" : "over-cap");
  return buf;
}

// --- Large-N frequency planner / plan store ------------------------------

namespace {

/// Parses the first `"key":[n0,n1,...]` numeric array in `doc`
/// (locale-independent from_chars, matching the JsonWriter output).
std::vector<double> json_find_number_array(std::string_view doc,
                                           std::string_view key) {
  std::vector<double> values;
  const std::string needle = "\"" + std::string(key) + "\":[";
  const std::size_t at = doc.find(needle);
  if (at == std::string_view::npos) return values;
  std::size_t pos = at + needle.size();
  while (pos < doc.size() && doc[pos] != ']') {
    double v = 0.0;
    const auto [next, ec] =
        std::from_chars(doc.data() + pos, doc.data() + doc.size(), v);
    if (ec != std::errc()) break;
    values.push_back(v);
    pos = static_cast<std::size_t>(next - doc.data());
    if (pos < doc.size() && doc[pos] == ',') ++pos;
  }
  return values;
}

std::uint64_t parse_u64(const std::string& text, std::uint64_t fallback) {
  std::uint64_t value = fallback;
  const auto [next, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && next == text.data() + text.size() ? value
                                                                : fallback;
}

/// The "freq_plan" cell evaluator: a pure function of the spec — all
/// randomness from the spec's seed, scoring from score_seed, result JSON
/// via the byte-stable JsonWriter.
std::string evaluate_freq_plan_cell(const CellSpec& cell) {
  OptimizerConfig config;
  config.num_antennas = std::max<std::size_t>(
      1, static_cast<std::size_t>(cell.param_num("antennas", 10)));
  config.mc_trials = std::max<std::size_t>(
      1, static_cast<std::size_t>(cell.param_num("mc_trials", 32)));
  config.restarts = std::max<std::size_t>(
      1, static_cast<std::size_t>(cell.param_num("restarts", 2)));
  config.constraint.alpha = cell.param_num("alpha", config.constraint.alpha);
  config.constraint.query_duration_s =
      cell.param_num("query_duration_s", config.constraint.query_duration_s);
  config.t_max_s = cell.param_num("t_max_s", 1.0);
  config.score_seed = parse_u64(cell.param("score_seed", "1234"), 1234);
  AnnealConfig anneal;
  anneal.moves =
      static_cast<std::size_t>(cell.param_num("moves", anneal.moves));

  FrequencyOptimizer optimizer(config);
  Rng rng(parse_u64(cell.param("seed", "7"), 7));
  const OptimizerResult result = optimizer.optimize_annealed(anneal, rng);

  JsonWriter w;
  w.begin_object();
  w.field("antennas", config.num_antennas);
  w.field("rms_limit_hz", config.constraint.rms_limit_hz());
  w.key("offsets_hz").begin_array();
  for (double f : result.offsets_hz) w.value(f);
  w.end_array();
  w.field("score", result.score);
  w.field("rms_hz", result.rms_hz);
  w.field("evaluations", result.evaluations);
  w.end_object();
  return w.str();
}

}  // namespace

CellSpec freq_plan_cell(const FrequencyPlanRequest& request) {
  CellSpec cell("freq_plan");
  cell.set("antennas", request.antennas)
      .set("mc_trials", request.mc_trials)
      .set("moves", request.moves)
      .set("restarts", request.restarts)
      .set("seed", std::to_string(request.seed))
      .set("score_seed", std::to_string(request.score_seed))
      .set("alpha", request.constraint.alpha)
      .set("query_duration_s", request.constraint.query_duration_s)
      .set("t_max_s", request.t_max_s);
  return cell;
}

void register_freq_plan_evaluator() {
  static std::once_flag once;
  std::call_once(once,
                 [] { register_cell_evaluator("freq_plan",
                                              evaluate_freq_plan_cell); });
}

FrequencyPlanOutcome plan_frequencies(const FrequencyPlanRequest& request,
                                      const std::string& journal_path) {
  register_freq_plan_evaluator();
  const CellSpec cell = freq_plan_cell(request);
  const auto t0 = std::chrono::steady_clock::now();
  const CellOutcome outcome = resolve_cell(cell, journal_path);

  FrequencyPlanOutcome plan;
  plan.scenario_hash = outcome.hash;
  plan.cached = outcome.source != CellSource::kComputed;
  plan.plan_json = outcome.result_json;
  if (plan.cached) {
    obs::count("planner.cache.hits");
  } else {
    obs::count("planner.cache.misses");
    obs::observe("planner.plan.seconds",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    // Evaluations belong to the computing call only: a hit spends zero.
    plan.evaluations = static_cast<std::size_t>(
        json_find_number(plan.plan_json, "evaluations", 0.0));
  }
  // The shortest-round-trip JsonWriter doubles parse back exactly, so a
  // journal-served plan carries the same score/offsets bits as the run
  // that computed it.
  plan.score = json_find_number(plan.plan_json, "score", 0.0);
  plan.rms_hz = json_find_number(plan.plan_json, "rms_hz", 0.0);
  plan.offsets_hz = json_find_number_array(plan.plan_json, "offsets_hz");
  return plan;
}

}  // namespace ivnet
