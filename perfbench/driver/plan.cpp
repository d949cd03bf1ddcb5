// plan: the Eq. 10 search. plan_frequencies at N=10 and N=128 with a cold
// memo and no journal (each pass computes), then a TwoStageController
// discovery + steady plan at N=10 (the hill-climb path).
#include <bit>
#include <cmath>

#include "harness.hpp"
#include "ivnet/cib/two_stage.hpp"
#include "ivnet/common/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Normalized diode threshold the steady stage optimizes for.
constexpr double kSteadyThreshold = 2.5;

double rms_hz(const std::vector<double>& offsets) {
  double sum = 0.0;
  for (const double f : offsets) sum += f * f;
  return offsets.empty()
             ? 0.0
             : std::sqrt(sum / static_cast<double>(offsets.size()));
}

}  // namespace

std::vector<ivnet::FrequencyPlanRequest> plan_requests(std::uint64_t seed) {
  ivnet::FrequencyPlanRequest n10;
  n10.antennas = 10;
  n10.mc_trials = 16;
  n10.moves = 50;
  n10.seed = derive_seed(seed, 400, 0);
  n10.score_seed = derive_seed(seed, 401, 0);
  // N=128 exactly as `ivnet plan --antennas 128` runs it (32 trials, 400
  // moves, 2 restarts, seed 7, score seed 1234): its search effort does not
  // change with the workload seed, so that plan's time is the same work in
  // every run.
  ivnet::FrequencyPlanRequest n128;
  n128.antennas = 128;
  return {n10, n128};
}

ivnet::OptimizerConfig two_stage_config(std::uint64_t seed) {
  ivnet::OptimizerConfig config;
  config.num_antennas = 10;
  config.mc_trials = 32;
  config.iterations = 100;
  config.restarts = 2;
  config.score_seed = derive_seed(seed, 402, 0);
  return config;
}

void run_plan(Context& ctx) {
  Report& report = ctx.report;
  report.knobs["IVNET_THREADS"] = std::to_string(ctx.nproc);
  report.knobs["IVNET_BATCH"] = "unset (library default)";
  report.knobs["IVNET_SHARDS"] = "1";
  report.tail_percentile = 0.0;  // few passes per run: report the worst
  const auto requests = plan_requests(ctx.seed);
  const ivnet::OptimizerConfig ts_config = two_stage_config(ctx.seed);
  const double limit = ts_config.constraint.rms_limit_hz();
  double quality = 0.0;
  std::size_t evaluations = 0;

  run_passes(ctx, 0, 2, [&](PassKind kind) {
    PassResult result;
    // --- setup: cold memo, evaluator registered, pool at nproc threads.
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      const double t0 = now_s();
      clear_cell_cache();
      ivnet::register_freq_plan_evaluator();
      ivnet::set_parallel_threads(ctx.nproc);
      ivnet::parallel_for(ctx.nproc * ivnet::detail::kParallelGrain,
                          [](std::size_t) {});
      result.setup_s.push_back(now_s() - t0);
    }
    ivnet::TwoStageController controller(ts_config);
    ivnet::Rng rng(derive_seed(ctx.seed, 403, 0));

    // --- timed: the workload's full set of plans.
    std::vector<ivnet::FrequencyPlanOutcome> plans;
    ivnet::StagePlan discovery;
    ivnet::StagePlan steady;
    double wall = 0.0;
    {
      Timed root(ctx.spans, "pass.plan", 4.0);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Timed call(ctx.spans, "sim.planner.plan_frequencies", 1.0,
                   requests[i].antennas);
        plans.push_back(ivnet::plan_frequencies(requests[i]));
      }
      {
        Timed call(ctx.spans, "cib.two_stage.plan_discovery", 1.0, 10);
        discovery = controller.plan_discovery(rng);
      }
      {
        Timed call(ctx.spans, "cib.two_stage.plan_steady", 1.0, 10);
        steady = controller.plan_steady(kSteadyThreshold, rng);
      }
      wall = root.stop();
    }

    // --- output checks.
    std::uint64_t digest = 0;
    double score_sum = 0.0;
    evaluations = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const auto& plan = plans[i];
      report.check("plan: N=" + std::to_string(requests[i].antennas) +
                       " plan is computed, complete and feasible",
                   !plan.cached && plan.evaluations > 0 &&
                       plan.offsets_hz.size() == requests[i].antennas &&
                       plan.rms_hz <= limit);
      score_sum += plan.score / static_cast<double>(requests[i].antennas);
      evaluations += plan.evaluations;
      digest = mix64(digest ^ fnv1a(plan.plan_json));
    }
    report.check("plan: two-stage plans are feasible",
                 discovery.offsets_hz.size() == 10 &&
                     steady.offsets_hz.size() == 10 &&
                     rms_hz(discovery.offsets_hz) <= limit &&
                     rms_hz(steady.offsets_hz) <= limit,
                 2, 0);
    score_sum += discovery.objective_value / 10.0;
    for (const double f : discovery.offsets_hz) {
      digest = mix64(digest ^ std::bit_cast<std::uint64_t>(f));
    }
    for (const double f : steady.offsets_hz) {
      digest = mix64(digest ^ std::bit_cast<std::uint64_t>(f));
    }
    // A repeated request is a store hit: zero evaluations, same bytes.
    const ivnet::FrequencyPlanOutcome again =
        ivnet::plan_frequencies(requests[0]);
    report.check("plan: repeated request is a store hit with 0 evaluations "
                 "and identical plan_json",
                 again.cached && again.evaluations == 0 &&
                     again.plan_json == plans[0].plan_json);
    quality = score_sum / 3.0;
    if (kind == PassKind::kMeasured) {
      report.rate_per_s.push_back(4.0 / wall);
      report.latency_ms.push_back({1e3 * wall});
    }
    result.cost = wall;
    result.digest = digest;
    return result;
  });
  report.quality = quality;
  report.named["evaluations"] = static_cast<double>(evaluations);
}

}  // namespace perfbench
