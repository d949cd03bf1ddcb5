// Tests for ivnet/rf/sounding (coherence bandwidth, Sec. 3.7 assumption)
// and ivnet/cib/scheduler (adaptive duty cycling, Sec. 2.3/3).
#include <gtest/gtest.h>

#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/scheduler.hpp"
#include "ivnet/rf/sounding.hpp"

namespace ivnet {
namespace {

TEST(Sounding, SingleRayHasZeroSpread) {
  Rng rng(1);
  const std::vector<double> amps = {1.0};
  const auto ch = make_blind_channel(amps, rng);
  const auto profile = delay_profile(ch, 0);
  EXPECT_DOUBLE_EQ(profile.rms_spread_s, 0.0);
  EXPECT_NEAR(profile.total_power, 1.0, 1e-12);
  EXPECT_GT(coherence_bandwidth_hz(profile), 1e17);
}

TEST(Sounding, MultipathSpreadMatchesConstruction) {
  Rng rng(2);
  const std::vector<double> amps = {1.0};
  const auto ch = make_multipath_channel(amps, 8, 100e-9, rng);
  const auto profile = delay_profile(ch, 0);
  EXPECT_GT(profile.rms_spread_s, 5e-9);
  EXPECT_LT(profile.rms_spread_s, 100e-9);
  // Bc = 1/(5 tau): tens of MHz for tens of ns.
  const double bc = coherence_bandwidth_hz(profile);
  EXPECT_GT(bc, 1e6);
  EXPECT_LT(bc, 1e9);
}

TEST(Sounding, FlatnessOneForSingleRay) {
  Rng rng(3);
  const std::vector<double> amps = {1.0, 1.0};
  const auto ch = make_blind_channel(amps, rng);
  EXPECT_NEAR(band_flatness(ch, 0, -137.0, 137.0), 1.0, 1e-9);
  EXPECT_NEAR(band_flatness(ch, 1, -35e6, 35e6), 1.0, 1e-9);
}

TEST(Sounding, MultipathNotFlatOverWideBand) {
  Rng rng(4);
  const std::vector<double> amps = {1.0};
  bool found_notchy = false;
  for (int k = 0; k < 10 && !found_notchy; ++k) {
    const auto ch = make_multipath_channel(amps, 8, 120e-9, rng);
    found_notchy = band_flatness(ch, 0, -20e6, 20e6) < 0.7;
  }
  EXPECT_TRUE(found_notchy);
}

TEST(Sounding, PaperPlanAlwaysWithinCoherence) {
  // Sec. 3.7's assumption holds trivially for Hz-scale offsets against
  // ns-scale delay spreads: |span| * tau ~ 1e-5 cycles.
  Rng rng(5);
  const std::vector<double> amps(10, 1.0);
  const auto offsets = FrequencyPlan::paper_default().offsets_hz();
  for (int k = 0; k < 10; ++k) {
    const auto ch = make_multipath_channel(amps, 8, 120e-9, rng);
    EXPECT_TRUE(plan_within_coherence(ch, offsets));
  }
}

TEST(Sounding, MegahertzPlanViolatesCoherence) {
  Rng rng(6);
  const std::vector<double> amps(4, 1.0);
  const std::vector<double> wide = {0.0, 5e6, 10e6, 20e6};
  bool violated = false;
  for (int k = 0; k < 10 && !violated; ++k) {
    const auto ch = make_multipath_channel(amps, 8, 120e-9, rng);
    violated = !plan_within_coherence(ch, wide);
  }
  EXPECT_TRUE(violated);
}

TEST(Scheduler, QueriesImmediatelyWhenEnergyRich) {
  DutyCycleScheduler sched(SchedulerConfig{});
  // Harvest far above the burst cost: every period can carry a query.
  EXPECT_EQ(sched.on_period(1e-4), ScheduleAction::kQuery);
  sched.on_reply();
  EXPECT_EQ(sched.on_period(1e-4), ScheduleAction::kQuery);
}

TEST(Scheduler, AccumulatesWhenEnergyPoor) {
  SchedulerConfig cfg;
  cfg.burst_energy_j = 2e-6;
  cfg.safety_margin = 1.5;
  DutyCycleScheduler sched(cfg);
  // 1 uJ per period against a 3 uJ requirement: charge twice, query third.
  EXPECT_EQ(sched.on_period(1e-6), ScheduleAction::kCharge);
  EXPECT_EQ(sched.on_period(1e-6), ScheduleAction::kCharge);
  EXPECT_EQ(sched.on_period(1e-6), ScheduleAction::kQuery);
}

TEST(Scheduler, SilenceTriggersBackoff) {
  SchedulerConfig cfg;
  cfg.burst_energy_j = 2e-6;
  DutyCycleScheduler sched(cfg);
  sched.on_period(1e-5);
  sched.on_silence();
  EXPECT_DOUBLE_EQ(sched.banked_energy_j(), 0.0);
  // After backoff the next query needs twice the margin: 1 period of 1e-5
  // no longer suffices for 2e-6 * 3.0 = 6e-6... it does; use smaller.
  int charges = 0;
  while (sched.on_period(1.4e-6) == ScheduleAction::kCharge) ++charges;
  // margin doubled to 3.0: need 6 uJ at 1.4 uJ/period -> 5 periods.
  EXPECT_GE(charges, 4);
  sched.on_reply();  // success resets the margin
  int charges_after = 0;
  while (sched.on_period(1.4e-6) == ScheduleAction::kCharge) ++charges_after;
  EXPECT_LT(charges_after, charges);
}

TEST(Scheduler, MaxChargePeriodsForcesAttempt) {
  SchedulerConfig cfg;
  cfg.burst_energy_j = 1.0;  // unreachable
  cfg.max_charge_periods = 5;
  DutyCycleScheduler sched(cfg);
  int periods = 0;
  while (sched.on_period(1e-9) == ScheduleAction::kCharge) ++periods;
  EXPECT_EQ(periods, 4);  // 5th period returns kQuery
}

TEST(Scheduler, EstimateTracksEwma) {
  SchedulerConfig cfg;
  cfg.ewma_alpha = 0.5;
  DutyCycleScheduler sched(cfg);
  sched.on_period(4e-6);
  EXPECT_NEAR(sched.harvest_estimate_j(), 4e-6, 1e-12);
  sched.on_period(0.0);
  EXPECT_NEAR(sched.harvest_estimate_j(), 2e-6, 1e-12);
}

}  // namespace
}  // namespace ivnet
