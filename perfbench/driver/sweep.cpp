// sweep: the x13 Monte-Carlo campaign (waterfall, media matrix, burst-retry
// ablation, depth curve) through run_campaign on the shared pool at nproc
// threads, with a fresh journal and a cold memo cache every pass.
#include <set>
#include <string>

#include "harness.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "workloads.hpp"

#if __has_include("ivnet/sim/batch_pipeline.hpp")
#include "ivnet/sim/batch_pipeline.hpp"
#define PERFBENCH_HAVE_BATCH 1
#endif

namespace perfbench {

using ivnet::CampaignSpec;
using ivnet::CellSpec;

namespace {

/// Trial multiplier over x13's defaults: one pass is about a second of
/// work on 4 CPUs, long enough that pool start and the slowest cell's tail
/// stay a small share of the pass.
constexpr std::size_t kTrialScale = 10;

std::size_t trials_of(const CellSpec& cell) {
  return static_cast<std::size_t>(cell.param_num("trials", 0.0));
}

#ifdef PERFBENCH_HAVE_BATCH
ivnet::ImpairedLinkConfig link_of(const CellSpec& cell) {
  ivnet::ImpairedLinkConfig link;
  link.recovery = ivnet::RecoveryPolicy::retries(
      static_cast<std::size_t>(cell.param_num("retries", 0.0)));
  link.snr_db = cell.param_num("snr_db", 30.0);
  if (cell.kind == "burst_retry") {
    link.impair.bursts = {.rate_hz = cell.param_num("burst_rate_hz", 0.0),
                          .mean_duration_s =
                              cell.param_num("burst_duration_s", 0.0),
                          .depth_db = cell.param_num("burst_depth_db", 40.0)};
  }
  return link;
}
#endif

}  // namespace

CampaignSpec sweep_spec(std::uint64_t seed, std::size_t trial_scale) {
  const std::size_t trials = 48 * trial_scale;
  CampaignSpec spec;
  spec.name = "perfbench_sweep";
  const auto group_seed = [seed](std::uint64_t group) {
    return static_cast<std::size_t>(derive_seed(seed, 100 + group, 0));
  };
  // Largest cells first: the pool claims cells in spec order, so the four
  // burst cells (each several times a matrix cell) start at once instead
  // of one of them running alone at the end of the pass.
  for (const std::size_t retries : {0u, 1u, 2u, 3u}) {
    CellSpec cell("burst_retry");
    cell.set("retries", retries)
        .set("snr_db", 30.0)
        .set("burst_rate_hz", 150.0)
        .set("burst_duration_s", 5e-4)
        .set("burst_depth_db", 40.0)
        .set("trials", 200 * trial_scale)
        .set("seed", group_seed(3));
    spec.cells.push_back(cell);
  }
  for (const double snr : {30.0, 24.0, 18.0, 12.0, 8.0, 4.0, 0.0}) {
    CellSpec cell("waterfall");
    cell.set("snr_db", snr)
        .set("trials", trials)
        .set("retries", std::size_t{2})
        .set("seed", group_seed(1));
    spec.cells.push_back(cell);
  }
  for (const double depth : {0.01, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15}) {
    CellSpec cell("depth");
    cell.set("depth_m", depth)
        .set("antennas", std::size_t{10})
        .set("retries", std::size_t{1})
        .set("trials", trials)
        .set("seed", group_seed(4));
    spec.cells.push_back(cell);
  }
  const struct {
    const char* name;
    double loss_db;
  } media[] = {{"water", 2.0}, {"muscle", 6.0}, {"gastric", 9.0}};
  for (const auto& medium : media) {
    for (const double snr : {30.0, 20.0, 10.0, 0.0}) {
      for (const std::size_t antennas : {1u, 3u, 10u}) {
        CellSpec cell("matrix");
        cell.set("medium", medium.name)
            .set("loss_db", medium.loss_db)
            .set("snr_db", snr)
            .set("antennas", antennas)
            .set("trials", trials)
            .set("retries", std::size_t{2})
            .set("seed", group_seed(2));
        spec.cells.push_back(cell);
      }
    }
  }
  return spec;
}

SweepWork sweep_work(const CampaignSpec& spec) {
  SweepWork work;
  for (const CellSpec& cell : spec.cells) {
    const std::size_t trials = trials_of(cell);
    // A waterfall point runs `trials` sessions plus `trials` BER probes.
    if (cell.kind == "waterfall") work.ber_probes += trials;
    work.sessions += trials;
#ifdef PERFBENCH_HAVE_BATCH
    if (ivnet::lockstep_batchable(link_of(cell))) {
      work.lockstep_sessions += trials;
    }
#endif
  }
  return work;
}

void run_sweep(Context& ctx) {
  Report& report = ctx.report;
  report.tail_percentile = 0.0;  // few passes per run: report the worst
  report.knobs["IVNET_THREADS"] = std::to_string(ctx.nproc);
  report.knobs["IVNET_BATCH"] = "unset (library default)";
  report.knobs["IVNET_SHARDS"] = "1";
  report.knobs["trial_scale"] = std::to_string(kTrialScale);

  const CampaignSpec probe = sweep_spec(ctx.seed, kTrialScale);
  std::set<std::uint64_t> unique;
  for (const CellSpec& cell : probe.cells) unique.insert(cell.content_hash());
  const SweepWork work = sweep_work(probe);
  const double ops = static_cast<double>(work.sessions + work.ber_probes);
  double quality = 0.0;

  run_passes(ctx, 1, 3, [&](PassKind kind) {
    PassResult result;
    // --- setup: cold memo, fresh journal, pool spawned at nproc threads.
    CampaignSpec spec;
    ivnet::CampaignOptions options;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      const double t0 = now_s();
      clear_cell_cache();
      ivnet::register_builtin_cell_evaluators();
      ivnet::set_parallel_threads(ctx.nproc);
      ivnet::parallel_for(ctx.nproc * ivnet::detail::kParallelGrain,
                          [](std::size_t) {});
      spec = sweep_spec(ctx.seed, kTrialScale);
      options.journal_path = ctx.tmp_path("sweep-journal");
      options.fresh = true;
      result.setup_s.push_back(now_s() - t0);
    }

    // --- timed: one campaign.
    ivnet::CampaignReport campaign;
    double wall = 0.0;
    {
      Timed root(ctx.spans, "pass.sweep", ops);
      Timed call(ctx.spans, "sim.campaign.run_campaign", ops);
      campaign = ivnet::run_campaign(spec, options);
      wall = call.stop();
    }
    result.cost = wall;
    const std::string results = campaign.results_json();
    result.digest = fnv1a(results);

    // --- output checks (outside the timed window).
    report.check("sweep: computed cells == unique cells, none resumed",
                 campaign.cells_computed == unique.size() &&
                     campaign.cells_resumed == 0 &&
                     campaign.outcomes.size() == spec.cells.size(),
                 spec.cells.size(),
                 spec.cells.size() - std::min(spec.cells.size(),
                                              campaign.cells_computed));
    // Waterfall cells are in falling-SNR order.
    std::size_t rising = 0;
    double previous = 2.0;
    std::size_t dirty_corner = 0;
    double matrix_success = 0.0;
    for (const ivnet::CellOutcome& out : campaign.outcomes) {
      if (out.spec.kind == "waterfall") {
        const double success =
            ivnet::json_find_number(out.result_json, "session_success", -1.0);
        rising += success > previous;
        previous = success;
      } else if (out.spec.kind == "matrix") {
        const double success =
            ivnet::json_find_number(out.result_json, "success_rate", -1.0);
        matrix_success += success;
        dirty_corner += out.spec.param_num("snr_db", 0.0) == 30.0 &&
                        out.spec.param_num("antennas", 0.0) == 10.0 &&
                        success < 0.99;
      }
    }
    report.check("sweep: waterfall success never rises as SNR falls",
                 rising == 0, 0, rising);
    report.check("sweep: clean corner (30 dB, 10 antennas) >= 99% success",
                 dirty_corner == 0, 0, dirty_corner);
    quality = matrix_success / static_cast<double>(kMatrixCells);
    if (kind == PassKind::kMeasured) {
      report.rate_per_s.push_back(ops / wall);
      report.latency_ms.push_back({1e3 * wall});
    }
    return result;
  });

  report.quality = quality;
  report.named["sessions"] = static_cast<double>(work.sessions);
  report.named["ber_probes"] = static_cast<double>(work.ber_probes);
  report.named["cells"] = static_cast<double>(probe.cells.size());
}

}  // namespace perfbench
