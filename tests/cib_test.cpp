// Tests for ivnet/cib — the paper's core contribution. Covers the frequency
// plan and Eq. 9 constraint, the Eq. 6 objective (and its block kernels
// against the per-trial scan at every instruction-set level), the
// optimizer, baselines, and the two-stage extension.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "ivnet/cib/baseline.hpp"
#include "ivnet/cib/block_kernels.hpp"
#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/cib/optimizer.hpp"
#include "ivnet/cib/transmitter.hpp"
#include "ivnet/cib/two_stage.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/pie.hpp"
#include "scoped_isa.hpp"

namespace ivnet {
namespace {

TEST(FlatnessConstraint, PaperNumbers) {
  // Sec. 3.6: alpha = 0.5, delta-t = 800 us -> RMS limit 199 Hz.
  const FlatnessConstraint c;
  EXPECT_NEAR(c.rms_limit_hz(), 199.0, 1.0);
}

TEST(FrequencyPlan, PaperDefaultMatchesSec5) {
  const auto plan = FrequencyPlan::paper_default();
  EXPECT_EQ(plan.num_antennas(), 10u);
  EXPECT_DOUBLE_EQ(plan.center_hz(), 915e6);
  EXPECT_DOUBLE_EQ(plan.offsets_hz().front(), 0.0);
  EXPECT_DOUBLE_EQ(plan.offsets_hz().back(), 137.0);
  EXPECT_DOUBLE_EQ(plan.carrier_hz(1), 915e6 + 7.0);
}

TEST(FrequencyPlan, PaperDefaultSatisfiesEq9) {
  const auto plan = FrequencyPlan::paper_default();
  EXPECT_TRUE(plan.integer_offsets());
  EXPECT_LT(plan.rms_offset_hz(), FlatnessConstraint{}.rms_limit_hz());
  EXPECT_TRUE(plan.satisfies(FlatnessConstraint{}));
}

TEST(FrequencyPlan, PeriodIsOneSecondForPaperSet) {
  // gcd(7, 20, 49, 68, 73, 90, 113, 121, 137) = 1 -> period 1 s.
  EXPECT_DOUBLE_EQ(FrequencyPlan::paper_default().period_s(), 1.0);
  // All-even offsets halve the period.
  const FrequencyPlan even(915e6, {0, 10, 20, 40});
  EXPECT_DOUBLE_EQ(even.period_s(), 0.1);
}

TEST(FrequencyPlan, NonIntegerOffsetsViolate) {
  const FrequencyPlan plan(915e6, {0.0, 7.5});
  EXPECT_FALSE(plan.integer_offsets());
  EXPECT_FALSE(plan.satisfies(FlatnessConstraint{}));
}

TEST(FrequencyPlan, RmsViolationDetected) {
  const FrequencyPlan hot(915e6, {0, 500, 600, 700});
  EXPECT_FALSE(hot.satisfies(FlatnessConstraint{}));
}

TEST(FrequencyPlan, TruncatedKeepsPrefix) {
  const auto plan = FrequencyPlan::paper_default().truncated(3);
  EXPECT_EQ(plan.num_antennas(), 3u);
  EXPECT_EQ(plan.offsets_hz(), (std::vector<double>{0, 7, 20}));
}

TEST(Objective, EnvelopePeaksAtNWithAlignedPhases) {
  const std::vector<double> offsets = {0, 7, 20, 49, 68};
  const std::vector<double> phases(5, 0.0);
  EXPECT_NEAR(peak_envelope(offsets, phases, 1.0), 5.0, 1e-3);
}

TEST(Objective, PeakNeverExceedsN) {
  Rng rng(1);
  const std::vector<double> offsets = {0, 7, 20, 49, 68};
  for (int k = 0; k < 50; ++k) {
    std::vector<double> phases(5);
    for (auto& p : phases) p = rng.phase();
    EXPECT_LE(peak_envelope(offsets, phases, 1.0), 5.0 + 1e-6);
  }
}

TEST(Objective, ExpectedPeakBetweenSqrtNAndN) {
  Rng rng(2);
  const auto plan = FrequencyPlan::paper_default();
  const double e = expected_peak_amplitude(plan.offsets_hz(), 64, rng);
  EXPECT_GT(e, std::sqrt(10.0));  // better than incoherent
  EXPECT_LE(e, 10.0);             // bounded by coherent
  EXPECT_GT(e, 0.6 * 10.0);       // a good set gets most of the way
}

TEST(Objective, PowerGainScalesRoughlyN2) {
  // Sec. 3.4: maximum power gain N^2; a good set should reach >half of it.
  Rng rng(3);
  for (std::size_t n : {2u, 5u, 10u}) {
    const auto plan = FrequencyPlan::paper_default().truncated(n);
    const double g = expected_peak_power_gain(plan.offsets_hz(), 64, rng);
    EXPECT_GT(g, 0.5 * static_cast<double>(n * n)) << n;
    EXPECT_LE(g, static_cast<double>(n * n) + 1e-6) << n;
  }
}

TEST(Objective, SingleToneHasUnitEnvelope) {
  const std::vector<double> offsets = {0.0};
  const std::vector<double> phases = {1.2};
  const auto env = cib_envelope(offsets, phases, {}, 1.0, 64);
  for (double v : env) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Objective, ConductionFractionDecreasesWithThreshold) {
  Rng rng(4);
  const auto plan = FrequencyPlan::paper_default();
  const double at_low =
      expected_conduction_fraction(plan.offsets_hz(), 1.0, 16, rng);
  const double at_high =
      expected_conduction_fraction(plan.offsets_hz(), 6.0, 16, rng);
  EXPECT_GT(at_low, at_high);
  EXPECT_GT(at_low, 0.3);   // envelope is above 1x single-antenna often
  EXPECT_LT(at_high, 0.3);  // but rarely above 6x
}

TEST(Objective, EnvelopeMatchesDirectPolarAtLargeStepCounts) {
  // Regression for incremental-rotation drift: the envelope evaluator
  // multiplies unit phasors up to 2^20 times, which slowly walks them off
  // the unit circle unless they are re-anchored from std::polar. Compare
  // against direct evaluation at spot-checked sample indices.
  Rng rng(3);
  const auto offsets = FrequencyPlan::paper_default().offsets_hz();
  std::vector<double> phases(offsets.size());
  std::vector<double> amps(offsets.size());
  for (auto& p : phases) p = rng.phase();
  for (auto& a : amps) a = rng.uniform(0.5, 2.0);
  const std::size_t steps = std::size_t{1} << 20;
  const double t_max = 1.0;
  const auto env = cib_envelope(offsets, phases, amps, t_max, steps);
  const double dt = t_max / static_cast<double>(steps);
  for (std::size_t n = 0; n < steps; n += 65521) {  // prime stride: hits
    std::complex<double> sum{0.0, 0.0};             // mid-renorm samples too
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      sum += std::polar(amps[i],
                        phases[i] + kTwoPi * offsets[i] * dt *
                                        static_cast<double>(n));
    }
    EXPECT_NEAR(env[n], std::abs(sum), 1e-9) << "sample " << n;
  }
  // The very last sample has seen the most accumulated rotation.
  std::complex<double> last{0.0, 0.0};
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    last += std::polar(amps[i],
                       phases[i] + kTwoPi * offsets[i] * dt *
                                       static_cast<double>(steps - 1));
  }
  EXPECT_NEAR(env[steps - 1], std::abs(last), 1e-9);
}

TEST(Objective, EnvelopePeriodicity) {
  // Integer offsets -> envelope repeats every 1 s (cyclic operation,
  // Sec. 3.6(a)).
  Rng rng(5);
  const std::vector<double> offsets = {0, 7, 20};
  std::vector<double> phases = {rng.phase(), rng.phase(), rng.phase()};
  const auto env = cib_envelope(offsets, phases, {}, 2.0, 2000);
  for (std::size_t i = 0; i < 1000; i += 50) {
    EXPECT_NEAR(env[i], env[i + 1000], 1e-6);
  }
}

// ----------------------------------------------- Eq. 6 block kernels
//
// peak_amplitude_samples and expected_conduction_fraction run the Eq. 6
// scan eight trials per block (cib/block_kernels.hpp). Every lane must be
// the per-trial scan's bytes: peaks memcmp-equal to peak_envelope, counts
// equal to a per-trial count of the same squared envelope.

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One trial's squared envelope, sample by sample, in the per-trial scan's
/// op order (cib/objective.cpp's scan_envelope_sq at unit amplitudes):
/// tones summed from +0 in order, each rotated by its step, re-anchored
/// every 4,096 steps. Its square roots are pinned to cib_envelope, so its
/// counts are the per-trial path's.
std::vector<double> trial_envelope_sq(std::span<const double> offsets,
                                      std::span<const double> phases,
                                      double t_max, std::size_t steps) {
  const std::size_t n = offsets.size();
  const double dt = t_max / static_cast<double>(steps);
  std::vector<double> re(n), im(n), cre(n), cim(n), sq(steps);
  const auto anchor = [&](std::size_t s) {
    for (std::size_t i = 0; i < n; ++i) {
      const double ph =
          phases[i] + kTwoPi * offsets[i] * dt * static_cast<double>(s);
      re[i] = std::cos(ph);
      im[i] = std::sin(ph);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double w = kTwoPi * offsets[i] * dt;
    cre[i] = std::cos(w);
    cim[i] = std::sin(w);
  }
  anchor(0);
  for (std::size_t s = 0; s < steps; ++s) {
    if (s != 0 && s % 4096 == 0) anchor(s);
    double sum_re = 0.0;
    double sum_im = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum_re += re[i];
      sum_im += im[i];
      const double r = re[i] * cre[i] - im[i] * cim[i];
      im[i] = re[i] * cim[i] + im[i] * cre[i];
      re[i] = r;
    }
    sq[s] = sum_re * sum_re + sum_im * sum_im;
  }
  return sq;
}

std::uint64_t count_at_least(const std::vector<double>& sq, double floor_sq) {
  std::uint64_t above = 0;
  for (const double v : sq) above += v >= floor_sq ? 1 : 0;
  return above;
}

/// Checks one block at every level: each lane's peak against peak_envelope
/// and, for each threshold, its count against the per-trial count, with
/// trial_envelope_sq pinned to cib_envelope on the way.
void expect_block_matches_per_trial(const std::vector<double>& offsets,
                                    const std::vector<double>& phases,
                                    std::size_t steps,
                                    const std::vector<double>& thresholds_sq) {
  constexpr std::size_t kLanes = detail::kBlockTrials;
  const std::size_t n = offsets.size();
  const double dt = 1.0 / static_cast<double>(steps);
  double want_peaks[kLanes];
  std::vector<std::uint64_t> want_counts;
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::vector<double> lane_phases(n);
    for (std::size_t i = 0; i < n; ++i) lane_phases[i] = phases[kLanes * i + l];
    want_peaks[l] = peak_envelope(offsets, lane_phases, 1.0, steps);
    const std::vector<double> sq =
        trial_envelope_sq(offsets, lane_phases, 1.0, steps);
    const std::vector<double> env =
        cib_envelope(offsets, lane_phases, {}, 1.0, steps);
    for (std::size_t s = 0; s < steps; ++s) {
      ASSERT_TRUE(bit_equal(std::sqrt(sq[s]), env[s]))
          << "reference scan differs from cib_envelope at step " << s;
    }
    for (const double t : thresholds_sq) {
      want_counts.push_back(count_at_least(sq, t));
    }
  }
  for (const IsaLevel isa : detail::isa_levels()) {
    SCOPED_TRACE(isa_name(isa));
    ScopedIsaLevel level(isa);
    const detail::BlockKernels& k = detail::block_kernels();
    double peaks[kLanes];
    k.envelope_peaks(offsets.data(), n, phases.data(), steps, dt, peaks);
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_TRUE(bit_equal(peaks[l], want_peaks[l]))
          << "lane " << l << ": " << peaks[l] << " vs " << want_peaks[l];
    }
    for (std::size_t t = 0; t < thresholds_sq.size(); ++t) {
      std::uint64_t counts[kLanes];
      k.envelope_above(offsets.data(), n, phases.data(), steps, dt,
                       thresholds_sq[t], counts);
      for (std::size_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(counts[l], want_counts[l * thresholds_sq.size() + t])
            << "lane " << l << ", threshold^2 " << thresholds_sq[t];
      }
    }
  }
}

/// Offsets 3 + 7i Hz, and block phases [tone][lane] that line lane 0's
/// tones up on step `at` (phase -w_i * at) while lanes 1-7 stay random.
std::vector<double> phases_peaking_at(const std::vector<double>& offsets,
                                      std::size_t at, std::size_t steps,
                                      Rng& rng) {
  constexpr std::size_t kLanes = detail::kBlockTrials;
  const double dt = 1.0 / static_cast<double>(steps);
  std::vector<double> phases(offsets.size() * kLanes);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    phases[kLanes * i] =
        -(kTwoPi * offsets[i] * dt * static_cast<double>(at));
    for (std::size_t l = 1; l < kLanes; ++l) {
      phases[kLanes * i + l] = rng.phase();
    }
  }
  return phases;
}

TEST(Eq6BlockKernels, PeakOnEveryStepOfThreeTilesMatchesPerTrialScan) {
  // Lane 0's sixteen tones line up on step `at`, for every step of a grid
  // that spans three 256-step scan tiles, so the running peak meets its
  // maximum (and the samples either side of it) on the first step, the
  // last, and both sides of each tile edge. Counts are checked at the
  // peak's own squared value (a tie that must count) and at bands below.
  constexpr std::size_t kSteps = 520;
  std::vector<double> offsets(16);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = 3.0 + 7.0 * static_cast<double>(i);
  }
  Rng rng(17);
  for (std::size_t at = 0; at < kSteps; ++at) {
    SCOPED_TRACE(::testing::Message() << "peak on step " << at);
    const std::vector<double> phases =
        phases_peaking_at(offsets, at, kSteps, rng);
    std::vector<double> lane0(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      lane0[i] = phases[detail::kBlockTrials * i];
    }
    const double top = trial_envelope_sq(offsets, lane0, 1.0, kSteps)[at];
    expect_block_matches_per_trial(offsets, phases, kSteps,
                                   {top, 16.0, 64.0});
    if (HasFailure()) return;
  }
}

TEST(Eq6BlockKernels, PeaksAcrossTheReanchorMatchPerTrialScan) {
  // A 9,000-step grid re-anchors the tone rotation at steps 4,096 and
  // 8,192; lane 0 peaks on either side of each re-anchor and on the last
  // step.
  constexpr std::size_t kSteps = 9000;
  std::vector<double> offsets(10);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = 3.0 + 7.0 * static_cast<double>(i);
  }
  Rng rng(19);
  for (const std::size_t at : {1u, 4095u, 4096u, 4097u, 8191u, 8192u, 8999u}) {
    SCOPED_TRACE(::testing::Message() << "peak on step " << at);
    expect_block_matches_per_trial(
        offsets, phases_peaking_at(offsets, at, kSteps, rng), kSteps,
        {9.0, 49.0});
  }
}

TEST(Eq6BlockKernels, BatchEstimatorsMatchPerTrialPathAtEveryLevel) {
  // peak_amplitude_samples and expected_conduction_fraction against the
  // per-trial path (trial t's phases from Rng::stream(base, t), base the
  // caller rng's first draw): trial counts around the block width, tone
  // counts from one to past the stack-held 64, on grids that re-anchor.
  constexpr std::uint64_t kSeed = 29;
  constexpr std::size_t kMaxTrials = 33;
  for (const std::size_t n : {1u, 2u, 3u, 10u, 33u, 128u}) {
    std::vector<double> offsets(n, 0.0);
    for (std::size_t i = 1; i < n; ++i) {
      offsets[i] = std::floor(613.0 * static_cast<double>(i) /
                              static_cast<double>(n - 1));
    }
    const std::size_t steps = default_steps(offsets, 1.0);
    const double threshold = std::sqrt(static_cast<double>(n));
    const std::uint64_t base = Rng(kSeed)();
    std::vector<double> want_peaks(kMaxTrials);
    std::vector<double> want_fractions(kMaxTrials);
    for (std::size_t t = 0; t < kMaxTrials; ++t) {
      Rng trial_rng = Rng::stream(base, t);
      std::vector<double> phases(n);
      for (auto& p : phases) p = trial_rng.phase();
      want_peaks[t] = peak_envelope(offsets, phases, 1.0, steps);
      want_fractions[t] =
          static_cast<double>(count_at_least(
              trial_envelope_sq(offsets, phases, 1.0, steps),
              threshold * threshold)) /
          static_cast<double>(steps);
    }
    for (const IsaLevel isa : detail::isa_levels()) {
      ScopedIsaLevel level(isa);
      for (const std::size_t trials : {1u, 7u, 8u, 9u, 16u, 17u, 33u}) {
        SCOPED_TRACE(::testing::Message() << isa_name(isa) << " n=" << n
                                          << " trials=" << trials);
        Rng rng(kSeed);
        const SampleSet got = peak_amplitude_samples(offsets, trials, rng);
        ASSERT_EQ(got.size(), trials);
        for (std::size_t t = 0; t < trials; ++t) {
          EXPECT_TRUE(bit_equal(got.values()[t], want_peaks[t]))
              << "trial " << t;
        }
        double total = 0.0;
        for (std::size_t t = 0; t < trials; ++t) total += want_fractions[t];
        Rng rng2(kSeed);
        EXPECT_TRUE(bit_equal(
            expected_conduction_fraction(offsets, threshold, trials, rng2),
            total / static_cast<double>(trials)));
      }
    }
  }
}

TEST(Optimizer, ProducesFeasiblePlan) {
  OptimizerConfig cfg;
  cfg.num_antennas = 5;
  cfg.mc_trials = 24;
  cfg.iterations = 60;
  cfg.restarts = 2;
  FrequencyOptimizer opt(cfg);
  Rng rng(6);
  const auto result = opt.optimize(rng);
  ASSERT_EQ(result.offsets_hz.size(), 5u);
  EXPECT_DOUBLE_EQ(result.offsets_hz.front(), 0.0);
  const FrequencyPlan plan(915e6, result.offsets_hz);
  EXPECT_TRUE(plan.satisfies(cfg.constraint));
  EXPECT_GT(result.score, 0.0);
  EXPECT_GT(result.evaluations, 10u);
}

TEST(Optimizer, BeatsABadSet) {
  // Fig. 6's message: frequency selection matters. The optimizer must beat
  // a pathological clustered set.
  OptimizerConfig cfg;
  cfg.num_antennas = 5;
  cfg.mc_trials = 32;
  cfg.iterations = 80;
  cfg.restarts = 2;
  FrequencyOptimizer opt(cfg);
  Rng rng(7);
  const auto result = opt.optimize(rng);
  const std::vector<double> bad = {0, 1, 2, 3, 4};  // tight cluster
  EXPECT_GT(result.score, opt.score(bad));
}

TEST(Optimizer, PaperSetScoresNearOptimizer) {
  OptimizerConfig cfg;
  cfg.num_antennas = 10;
  cfg.mc_trials = 32;
  cfg.iterations = 80;
  cfg.restarts = 2;
  FrequencyOptimizer opt(cfg);
  Rng rng(8);
  const auto result = opt.optimize(rng);
  const double paper =
      opt.score(FrequencyPlan::paper_default().offsets_hz());
  // The published set should be within 10% of what our optimizer finds.
  EXPECT_GT(paper, 0.9 * result.score);
}

TEST(Baselines, GenieIsSumOfMagnitudes) {
  Rng rng(9);
  const std::vector<double> amps = {1.0, 2.0, 3.0};
  const auto ch = make_blind_channel(amps, rng);
  EXPECT_NEAR(genie_mimo_amplitude(ch), 6.0, 1e-9);
}

TEST(Baselines, OrderingCibBetweenBlindAndGenie) {
  Rng rng(10);
  const std::vector<double> amps(8, 1.0);
  const auto offsets = FrequencyPlan::paper_default().truncated(8).offsets_hz();
  int cib_above_blind = 0;
  const int trials = 40;
  for (int k = 0; k < trials; ++k) {
    const auto ch = make_blind_channel(amps, rng);
    const double cib = cib_peak_amplitude(ch, offsets, 1.0);
    const double blind = coherent_blind_amplitude(ch);
    const double genie = genie_mimo_amplitude(ch);
    EXPECT_LE(cib, genie + 1e-9);
    EXPECT_GE(cib, blind - 1e-9);  // the peak over time includes t where
                                   // phases match the static draw or better
    cib_above_blind += (cib > blind);
  }
  EXPECT_EQ(cib_above_blind, trials);
}

TEST(Baselines, BeamsteeringPerfectWithTruePhases) {
  Rng rng(11);
  const std::vector<double> amps = {1.0, 1.0, 1.0, 1.0};
  const auto ch = make_blind_channel(amps, rng);
  std::vector<double> true_phases(4);
  for (std::size_t i = 0; i < 4; ++i) true_phases[i] = std::arg(ch.gain(i, 0.0));
  EXPECT_NEAR(beamsteering_amplitude(ch, true_phases), 4.0, 1e-9);
}

TEST(Baselines, BeamsteeringCollapsesWithWrongPhases) {
  // Through tissue the geometric phase assumption is wrong; the average
  // steered gain collapses to the blind level (footnote 5 in the paper).
  Rng rng(12);
  const std::vector<double> amps(10, 1.0);
  double steered_sum = 0.0;
  const int trials = 300;
  std::vector<double> assumed(10, 0.0);  // geometry says equal phases
  for (int k = 0; k < trials; ++k) {
    const auto ch = make_blind_channel(amps, rng);
    const double a = beamsteering_amplitude(ch, assumed);
    steered_sum += a * a;
  }
  // E[|sum of N random phasors|^2] = N.
  EXPECT_NEAR(steered_sum / trials, 10.0, 2.0);
}

TEST(Transmitter, BuildsSynchronizedCommandWaveforms) {
  Rng rng(13);
  RadioArrayConfig cfg;
  CibTransmitter tx(FrequencyPlan::paper_default().truncated(4), cfg, rng);
  const auto waves = tx.radios().transmit(
      gen2::pie_encode(gen2::QueryCommand{}.encode(), gen2::PieTiming{},
                       cfg.sample_rate_hz, /*with_preamble=*/true));
  ASSERT_EQ(waves.size(), 4u);
  // All antennas share the envelope: zero samples (PIE lows) coincide.
  for (std::size_t i = 0; i < waves[0].size(); i += 53) {
    const bool zero0 = std::abs(waves[0].samples[i]) < 1e-9;
    for (std::size_t a = 1; a < 4; ++a) {
      EXPECT_EQ(zero0, std::abs(waves[a].samples[i]) < 1e-9);
    }
  }
}

TEST(Transmitter, CwBurstDuration) {
  Rng rng(14);
  RadioArrayConfig cfg;
  CibTransmitter tx(FrequencyPlan::paper_default().truncated(2), cfg, rng);
  const auto waves = tx.transmit_cw(0.01);
  EXPECT_NEAR(waves[0].duration_s(), 0.01, 1e-4);
}

TEST(TwoStage, SteadyPlanImprovesConductionFraction) {
  OptimizerConfig cfg;
  cfg.num_antennas = 6;
  cfg.mc_trials = 24;
  cfg.iterations = 50;
  cfg.restarts = 2;
  TwoStageController controller(cfg);
  Rng rng(15);
  const auto discovery = controller.plan_discovery(rng);
  // Threshold at 2x a single antenna: well within reach of 6 antennas.
  const double threshold = 2.0;
  const auto steady = controller.plan_steady(threshold, rng);
  const double disc_frac =
      controller.conduction_fraction(discovery.offsets_hz, threshold);
  const double steady_frac =
      controller.conduction_fraction(steady.offsets_hz, threshold);
  EXPECT_GE(steady_frac, disc_frac * 0.99);
  EXPECT_GT(steady.objective_value, 0.0);
}

TEST(TwoStage, SteadyPlanAtUnreachableThresholdKeepsAFeasiblePlan) {
  // No set of 4 unit tones reaches 10x a single antenna, so every restart
  // scores 0; the steady stage must still hand back a feasible plan.
  OptimizerConfig cfg;
  cfg.num_antennas = 4;
  cfg.mc_trials = 16;
  cfg.iterations = 20;
  cfg.restarts = 2;
  TwoStageController controller(cfg);
  Rng rng(21);
  const auto steady = controller.plan_steady(10.0, rng);
  ASSERT_EQ(steady.offsets_hz.size(), 4u);
  EXPECT_DOUBLE_EQ(steady.offsets_hz.front(), 0.0);
  const FrequencyPlan plan(915e6, steady.offsets_hz);
  EXPECT_TRUE(plan.satisfies(cfg.constraint));
  EXPECT_EQ(steady.objective_value, 0.0);
}

// Property sweep: for every antenna count, the Monte-Carlo peak-power gain
// of the paper's plan is within (0, N^2].
class GainBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GainBound, WithinTheoreticalBounds) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const auto plan = FrequencyPlan::paper_default().truncated(n);
  const double g = expected_peak_power_gain(plan.offsets_hz(), 32, rng);
  EXPECT_GT(g, static_cast<double>(n) * 0.9);  // at least ~linear (coherent
                                               // peak beats incoherent sum)
  EXPECT_LE(g, static_cast<double>(n * n) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AntennaCounts, GainBound,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

}  // namespace
}  // namespace ivnet
