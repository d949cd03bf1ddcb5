// The determinism suite: every parallelized Monte-Carlo loop must produce
// BITWISE-identical results for any pool size (IVNET_THREADS 1, 2, 8, ...).
// This is the contract that makes the thread count a pure performance knob:
// per-trial counter-derived Rng streams plus order-fixed reductions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/cib/optimizer.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/trace.hpp"
#include "ivnet/sim/experiment.hpp"
#include "ivnet/sim/planner.hpp"
#include "ivnet/svc/loadgen.hpp"
#include "ivnet/svc/service.hpp"
#include "scoped_isa.hpp"
#include "bit_fields.hpp"

namespace ivnet {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

/// The balanced-brace object following `"key":` in `doc` (including the
/// braces), or "" when absent. The snapshot emitter never puts braces inside
/// strings, so brace counting is exact here.
std::string extract_object(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t open = doc.find('{', at + needle.size());
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < doc.size(); ++i) {
    if (doc[i] == '{') ++depth;
    if (doc[i] == '}' && --depth == 0) {
      return doc.substr(open, i - open + 1);
    }
  }
  return "";
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

// The Eq. 6 estimators and the hill-climb run the block kernels, so each
// result must be one reference at every pool size and at every
// instruction-set level the host offers.

TEST_F(DeterminismTest, ExpectedPeakAmplitudeBitwiseAcrossPoolSizes) {
  const auto plan = FrequencyPlan::paper_default();
  auto run = [&] {
    Rng rng(77);
    return expected_peak_amplitude(plan.offsets_hz(), 96, rng);
  };
  set_parallel_threads(1);
  const double reference = run();
  EXPECT_GT(reference, 0.0);
  for (const IsaLevel isa : detail::isa_levels()) {
    ScopedIsaLevel level(isa);
    for (std::size_t threads : kPoolSizes) {
      set_parallel_threads(threads);
      EXPECT_EQ(run(), reference)
          << isa_name(isa) << ", pool size " << threads;
    }
  }
}

TEST_F(DeterminismTest, ConductionFractionBitwiseAcrossPoolSizes) {
  const auto plan = FrequencyPlan::paper_default();
  auto run = [&] {
    Rng rng(21);
    return expected_conduction_fraction(plan.offsets_hz(), 3.0, 48, rng);
  };
  set_parallel_threads(1);
  const double reference = run();
  for (const IsaLevel isa : detail::isa_levels()) {
    ScopedIsaLevel level(isa);
    for (std::size_t threads : kPoolSizes) {
      set_parallel_threads(threads);
      EXPECT_EQ(run(), reference)
          << isa_name(isa) << ", pool size " << threads;
    }
  }
}

TEST_F(DeterminismTest, OptimizerBitwiseAcrossPoolSizes) {
  OptimizerConfig cfg;
  cfg.num_antennas = 6;
  cfg.mc_trials = 16;
  cfg.iterations = 30;
  cfg.restarts = 3;
  auto run = [&] {
    FrequencyOptimizer opt(cfg);
    Rng rng(123);
    return opt.optimize(rng);
  };
  set_parallel_threads(1);
  const auto reference = run();
  EXPECT_EQ(reference.offsets_hz.size(), 6u);
  for (const IsaLevel isa : detail::isa_levels()) {
    ScopedIsaLevel level(isa);
    for (std::size_t threads : kPoolSizes) {
      set_parallel_threads(threads);
      const auto result = run();
      EXPECT_EQ(result.offsets_hz, reference.offsets_hz)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.score, reference.score)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.rms_hz, reference.rms_hz)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.evaluations, reference.evaluations)
          << isa_name(isa) << ", pool size " << threads;
    }
  }
}

TEST_F(DeterminismTest, AnnealedOptimizerBitwiseAcrossPoolSizes) {
  // The delta-evaluated annealing search inherits the optimizer's
  // determinism contract: one stream base per optimize call, one counter
  // stream per restart, trial-order reductions — so the winning plan is
  // byte-identical whether the restarts ran sequentially (pool of 1) or
  // fanned out (8), and at every instruction-set level the host offers.
  OptimizerConfig cfg;
  cfg.num_antennas = 12;
  cfg.mc_trials = 8;
  cfg.restarts = 3;
  AnnealConfig anneal;
  anneal.moves = 60;
  auto run = [&] {
    FrequencyOptimizer opt(cfg);
    Rng rng(123);
    return opt.optimize_annealed(anneal, rng);
  };
  set_parallel_threads(1);
  const auto reference = run();
  EXPECT_EQ(reference.offsets_hz.size(), 12u);
  for (const IsaLevel isa : detail::isa_levels()) {
    ScopedIsaLevel level(isa);
    for (std::size_t threads : kPoolSizes) {
      set_parallel_threads(threads);
      const auto result = run();
      EXPECT_EQ(result.offsets_hz, reference.offsets_hz)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.score, reference.score)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.rms_hz, reference.rms_hz)
          << isa_name(isa) << ", pool size " << threads;
      EXPECT_EQ(result.evaluations, reference.evaluations)
          << isa_name(isa) << ", pool size " << threads;
    }
  }
}

TEST_F(DeterminismTest, PlannerCountersSnapshotByteEqualAcrossPoolSizes) {
  // Plan once (miss: the annealer runs and emits planner.evals and
  // planner.moves.*), re-plan the identical request (hit: zero extra
  // evals), and pin the counters section of the snapshot across thread
  // counts. planner.plan.seconds is wall-valued and lives in a histogram
  // section, so comparing counters only keeps the pin byte-exact.
  FrequencyPlanRequest request;
  request.antennas = 8;
  request.mc_trials = 4;
  request.moves = 24;
  request.restarts = 2;
  auto run = [&] {
    CellCache::instance().clear();  // a fresh store per run: miss then hit
    obs::MetricsRegistry registry;
    obs::install({.metrics = &registry, .tracer = nullptr});
    const auto first = plan_frequencies(request);
    const auto again = plan_frequencies(request);
    obs::install_null();
    EXPECT_FALSE(first.cached);
    EXPECT_TRUE(again.cached);
    EXPECT_EQ(again.evaluations, 0u);
    EXPECT_EQ(again.plan_json, first.plan_json);
    // Pin the planner.* counters only: the infrastructural parallel.for.*
    // counters count pool dispatches, which legitimately change when the
    // restart fan-out switches between parallel and sequential.
    const std::string counters =
        extract_object(registry.snapshot_json(), "counters");
    std::string pinned;
    std::size_t pos = 0;
    while ((pos = counters.find("\"planner.", pos)) != std::string::npos) {
      const std::size_t end = counters.find_first_of(",}", pos);
      pinned += counters.substr(pos, end - pos) + "\n";
      pos = end;
    }
    return pinned;
  };
  set_parallel_threads(1);
  const std::string reference = run();
  ASSERT_NE(reference.find("planner.evals"), std::string::npos);
  ASSERT_NE(reference.find("planner.moves.accepted"), std::string::npos);
  ASSERT_NE(reference.find("planner.moves.rejected"), std::string::npos);
  ASSERT_NE(reference.find("planner.cache.hits"), std::string::npos);
  ASSERT_NE(reference.find("planner.cache.misses"), std::string::npos);
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, GainTrialsBitwiseAcrossPoolSizes) {
  const auto scen = water_tank_scenario(0.05, 0.05);
  const auto plan = FrequencyPlan::paper_default().truncated(6);
  auto run = [&] {
    Rng rng(9);
    return run_gain_trials(scen, standard_tag(), plan, 40, rng);
  };
  set_parallel_threads(1);
  const auto reference = run();
  ASSERT_EQ(reference.size(), 40u);
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    const auto trials = run();
    ASSERT_EQ(trials.size(), reference.size()) << "pool size " << threads;
    for (std::size_t k = 0; k < trials.size(); ++k) {
      EXPECT_EQ(trials[k].cib_gain, reference[k].cib_gain)
          << "trial " << k << " pool size " << threads;
      EXPECT_EQ(trials[k].baseline_gain, reference[k].baseline_gain)
          << "trial " << k << " pool size " << threads;
      EXPECT_EQ(trials[k].genie_gain, reference[k].genie_gain)
          << "trial " << k << " pool size " << threads;
    }
  }
}

TEST_F(DeterminismTest, PlannerBitwiseAcrossPoolSizes) {
  const auto scen = water_tank_scenario(0.05, 0.05);
  auto run = [&] {
    Rng rng(5);
    return plan_deployment(scen, standard_tag(), DeploymentRequirements{}, rng);
  };
  set_parallel_threads(1);
  const auto reference = run();
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    const auto plan = run();
    EXPECT_EQ(plan.feasible, reference.feasible) << "pool size " << threads;
    EXPECT_EQ(plan.antennas, reference.antennas) << "pool size " << threads;
    EXPECT_EQ(plan.power_up_probability, reference.power_up_probability)
        << "pool size " << threads;
    EXPECT_EQ(plan.energy_per_period_j, reference.energy_per_period_j)
        << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, ImpairedSessionBitwiseAcrossPoolSizes) {
  // One impaired link session is single-threaded, but its rng contract
  // (exactly one draw, counter-derived attempt streams) must make it
  // insensitive to the global pool size anyway.
  ImpairedLinkConfig config;
  config.snr_db = 10.0;
  config.impair.bursts = {.rate_hz = 200.0, .mean_duration_s = 5e-4,
                          .depth_db = 40.0};
  config.recovery = RecoveryPolicy::retries(2);
  auto run = [&] {
    Rng rng(444);
    return run_impaired_link_session(config, rng);
  };
  set_parallel_threads(1);
  const auto reference = run();
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    const auto report = run();
    EXPECT_EQ(report.success, reference.success) << "pool size " << threads;
    EXPECT_EQ(report.rn16, reference.rn16) << "pool size " << threads;
    EXPECT_EQ(report.epc, reference.epc) << "pool size " << threads;
    EXPECT_EQ(report.commands_sent, reference.commands_sent)
        << "pool size " << threads;
    EXPECT_EQ(report.recovery.retries, reference.recovery.retries)
        << "pool size " << threads;
    EXPECT_EQ(report.recovery.timeouts, reference.recovery.timeouts)
        << "pool size " << threads;
    EXPECT_EQ(report.last_correlation, reference.last_correlation)
        << "pool size " << threads;
    EXPECT_EQ(report.elapsed_s, reference.elapsed_s)
        << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, WaterfallBitwiseEqualAcrossPoolSizes) {
  WaterfallConfig config;
  config.snr_points_db = {30.0, 12.0, 4.0};
  config.trials_per_point = 24;
  config.link.recovery = RecoveryPolicy::retries(1);
  auto run = [&] {
    Rng rng(888);
    const SweepRun<WaterfallConfig> one{config, rng(), 0};
    return fields(run_ber_waterfalls({&one, 1}).front());
  };
  set_parallel_threads(1);
  const auto reference = run();
  EXPECT_EQ(reference.size(), 3u);
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, SessionMatrixBitwiseEqualAcrossPoolSizes) {
  MatrixConfig config;
  config.media = {{"water", 2.0}, {"muscle", 6.0}};
  config.snr_points_db = {30.0, 8.0};
  config.antenna_counts = {1, 3};
  config.trials_per_cell = 12;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.link.impair.bursts = {.rate_hz = 100.0, .mean_duration_s = 5e-4,
                               .depth_db = 40.0};
  auto run = [&] {
    Rng rng(1234);
    const SweepRun<MatrixConfig> one{config, rng(), 0};
    return fields(run_session_matrices({&one, 1}).front());
  };
  set_parallel_threads(1);
  const auto reference = run();
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

// Observability must obey the same contract as the results themselves: a
// metrics snapshot and a sim-time trace taken over a fixed workload must be
// byte-identical for any pool size.  Everything the hooks record for these
// workloads is structural (call/trial counts) or simulated (elapsed seconds,
// retries, Q values), never wall-clock or scheduling-order dependent.
TEST_F(DeterminismTest, MetricsSnapshotByteEqualAcrossPoolSizes) {
  WaterfallConfig config;
  config.snr_points_db = {24.0, 10.0};
  config.trials_per_point = 16;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.link.impair.bursts = {.rate_hz = 150.0, .mean_duration_s = 5e-4,
                               .depth_db = 40.0};
  auto run = [&] {
    obs::MetricsRegistry registry;
    obs::install({.metrics = &registry, .tracer = nullptr});
    Rng rng(4242);
    const SweepRun<WaterfallConfig> one{config, rng(), 0};
    (void)run_ber_waterfalls({&one, 1});
    obs::install_null();
    return registry.snapshot_json();
  };
  set_parallel_threads(1);
  const std::string reference = run();
  EXPECT_NE(reference.find("\"link.sessions\":32"), std::string::npos)
      << reference;
  EXPECT_NE(reference.find("link.elapsed_s"), std::string::npos);
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, SimTraceByteEqualAcrossPoolSizes) {
  MatrixConfig config;
  config.media = {{"water", 2.0}, {"muscle", 6.0}};
  config.snr_points_db = {26.0, 9.0};
  config.antenna_counts = {1, 4};
  config.trials_per_cell = 8;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.link.impair.bursts = {.rate_hz = 120.0, .mean_duration_s = 5e-4,
                               .depth_db = 40.0};
  auto run = [&] {
    obs::Tracer tracer;
    obs::install({.metrics = nullptr, .tracer = &tracer});
    Rng rng(97);
    const SweepRun<MatrixConfig> one{config, rng(), 0};
    (void)run_session_matrices({&one, 1});
    obs::install_null();
    return tracer.to_json();
  };
  set_parallel_threads(1);
  const std::string reference = run();
  EXPECT_NE(reference.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(reference.find("\"name\":\"charge\""), std::string::npos);
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, SnapshotAndTraceTogetherByteEqualAcrossPoolSizes) {
  // Both sinks live at once, over the depth sweep: the combined artifact pair
  // is what ci.sh archives, so pin it as a unit.
  DepthSweepConfig config;
  config.depths_m = {0.03, 0.08};
  config.trials_per_point = 12;
  config.link.recovery = RecoveryPolicy::retries(2);
  auto run = [&] {
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    obs::install({.metrics = &registry, .tracer = &tracer});
    Rng rng(31);
    (void)run_success_vs_depth(config, rng);
    obs::install_null();
    return registry.snapshot_json() + "\n" + tracer.to_json();
  };
  set_parallel_threads(1);
  const std::string reference = run();
  for (std::size_t threads : kPoolSizes) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), reference) << "pool size " << threads;
  }
}

TEST_F(DeterminismTest, ServiceMetricsSnapshotByteEqualAcrossWorkerCounts) {
  // Service mode inherits the metrics determinism contract: every counter
  // and every SIM-time-valued histogram in the snapshot must be
  // byte-identical across worker counts and across reruns. Wall-time
  // histograms (svc.queue_wait, svc.service_time) and scheduling-dependent
  // gauges (svc.inflight) are explicitly outside the contract, so the pin
  // compares the extracted sections, not the whole document.
  svc::LoadGenConfig load;
  svc::LoadState decode;
  decode.rate_rps = 1000.0;
  decode.kind = svc::RequestKind::kDecode;
  decode.trials = 3;
  decode.antennas = 2;
  decode.snr_db = 14.0;
  svc::LoadState plan = decode;
  plan.kind = svc::RequestKind::kPlan;
  plan.antennas = 4;
  load.states = {decode, plan};
  load.transition = {0.8, 0.2, 0.5, 0.5};
  load.requests = 48;
  load.seed = 23;
  const auto schedule = svc::generate_schedule(load);

  auto run = [&](std::size_t workers) {
    // kPlan requests memoize through the process-wide plan store; clear it
    // so every run recomputes and the planner counters match run one.
    CellCache::instance().clear();
    obs::MetricsRegistry registry;
    obs::install({.metrics = &registry, .tracer = nullptr});
    {
      svc::ServiceConfig config;
      config.workers = workers;
      config.queue_depth = 128;  // > requests: the reject path stays cold
      svc::InventoryService service(config, nullptr);
      for (const svc::ScheduledRequest& s : schedule) {
        EXPECT_TRUE(service.submit(s.request));
      }
      service.stop();
    }
    obs::install_null();
    const std::string snapshot = registry.snapshot_json();
    return extract_object(snapshot, "counters") + "\n" +
           extract_object(snapshot, "svc.sim_elapsed_s") + "\n" +
           extract_object(snapshot, "link.elapsed_s");
  };

  set_parallel_threads(1);
  const std::string reference = run(1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference.front(), '{') << "counters section must extract";
  ASSERT_NE(reference.find("svc.completed"), std::string::npos);
  ASSERT_NE(reference.find("svc.requests.plan"), std::string::npos);
  for (std::size_t workers : kPoolSizes) {
    EXPECT_EQ(run(workers), reference) << "workers " << workers;
  }
  EXPECT_EQ(run(8), run(8)) << "rerun at fixed width must be byte-identical";
}

TEST_F(DeterminismTest, RngConsumedExactlyOncePerParallelCall) {
  // The parallel loops draw exactly one stream base from the caller's rng,
  // regardless of the trial count: downstream consumers of the same rng see
  // the same sequence whether the loop ran 10 or 10000 trials.
  const auto offsets = FrequencyPlan::paper_default().offsets_hz();
  Rng a(7), b(7);
  (void)expected_peak_amplitude(offsets, 8, a);
  (void)expected_peak_amplitude(offsets, 64, b);
  EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace ivnet
