// Tests for the experiment-layer helpers (ivnet/sim/experiment) and the
// Query-M -> uplink-modulation wiring through the tag.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ivnet/common/stats.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/experiment.hpp"

namespace ivnet {
namespace {

/// Sample standard deviation (n - 1 denominator).
double stddev(const std::vector<double>& x) {
  const double m = mean(x);
  double sum_sq = 0.0;
  for (double v : x) sum_sq += (v - m) * (v - m);
  return std::sqrt(sum_sq / static_cast<double>(x.size() - 1));
}

TEST(ExperimentHelpers, ArrayAmplitudesJitterAroundNominal) {
  Rng rng(1);
  const auto scen = air_scenario(2.0);
  const auto tag = standard_tag();
  const double v1 = single_antenna_voltage(scen, tag, calib::kCibCenterHz);
  std::vector<double> ratios_db;
  for (int k = 0; k < 100; ++k) {
    const auto amps =
        array_amplitudes(scen, tag, 4, calib::kCibCenterHz, rng);
    ASSERT_EQ(amps.size(), 4u);
    for (double a : amps) ratios_db.push_back(amplitude_to_db(a / v1));
  }
  // Jitter is ~N(0, 1 dB): mean near 0, spread near the configured sigma.
  EXPECT_NEAR(mean(ratios_db), 0.0, 0.2);
  EXPECT_NEAR(stddev(ratios_db), calib::kArrayAmplitudeJitterDb, 0.25);
}

TEST(ExperimentHelpers, ScenarioChannelHonoursMultipathSetting) {
  Rng rng(2);
  const auto tag = standard_tag();
  // Air corridor: single-ray channel.
  const auto los = draw_scenario_channel(air_scenario(2.0), tag, 3,
                                         calib::kCibCenterHz, rng);
  EXPECT_EQ(los.rays()[0].size(), 1u);
  // Tank: the scenario's multipath richness.
  const auto tank_scen = water_tank_scenario(0.05, 0.5);
  const auto tank = draw_scenario_channel(tank_scen, tag, 3,
                                          calib::kCibCenterHz, rng);
  EXPECT_EQ(tank.rays()[0].size(), tank_scen.multipath_rays);
}

TEST(ExperimentHelpers, SessionReproducibleFromSeed) {
  SessionConfig cfg;
  cfg.plan = FrequencyPlan::paper_default().truncated(8);
  Rng rng_a(33), rng_b(33);
  const auto a = run_gen2_session(air_scenario(3.0), standard_tag(), cfg,
                                  rng_a);
  const auto b = run_gen2_session(air_scenario(3.0), standard_tag(), cfg,
                                  rng_b);
  EXPECT_EQ(a.rn16_decoded, b.rn16_decoded);
  EXPECT_EQ(a.rn16, b.rn16);
  EXPECT_DOUBLE_EQ(a.peak_envelope_v, b.peak_envelope_v);
  EXPECT_DOUBLE_EQ(a.preamble_correlation, b.preamble_correlation);
}

TEST(ExperimentHelpers, SummariesMatchManualPercentiles) {
  std::vector<GainTrial> trials;
  for (int k = 1; k <= 100; ++k) {
    GainTrial t;
    t.cib_gain = k;
    t.baseline_gain = 100 - k + 1;
    trials.push_back(t);
  }
  const auto cib = summarize_cib(trials);
  const auto base = summarize_baseline(trials);
  EXPECT_NEAR(cib.p50, 50.5, 1e-9);
  EXPECT_NEAR(base.p50, 50.5, 1e-9);
  EXPECT_NEAR(cib.p10, 10.9, 1e-9);
  EXPECT_NEAR(cib.p90, 90.1, 1e-9);
}

// --- Query M field -> uplink modulation wiring.

std::vector<double> query_envelope(gen2::Miller m, double amplitude) {
  auto env = gen2::pie_encode(gen2::QueryCommand{.m = m, .q = 0}.encode(),
                              gen2::PieTiming{}, 800e3, true);
  for (auto& v : env) v *= amplitude;
  return env;
}

TEST(UplinkModulation, DefaultQueryYieldsFm0Reply) {
  TagDevice tag(standard_tag());
  const auto result =
      tag.receive_downlink(query_envelope(gen2::Miller::kFm0, 2.0), 800e3);
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_EQ(tag.state_machine().uplink_modulation(), gen2::Miller::kFm0);
  const auto gamma = tag.backscatter_reflection(*result.reply, 800e3);
  const auto decoded = gen2::fm0_decode(gamma, 16, 40e3, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.bits, *result.reply);
}

class MillerQuery : public ::testing::TestWithParam<gen2::Miller> {};

TEST_P(MillerQuery, ReplyUsesRequestedModulation) {
  TagDevice tag(standard_tag());
  const auto result =
      tag.receive_downlink(query_envelope(GetParam(), 2.0), 800e3);
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_EQ(tag.state_machine().uplink_modulation(), GetParam());
  const auto gamma = tag.backscatter_reflection(*result.reply, 800e3);
  // Decodable with the matching Miller decoder...
  const auto decoded =
      gen2::miller_decode(GetParam(), gamma, 16, 40e3, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.bits, *result.reply);
  // ...and NOT with plain FM0 at the same confidence.
  const auto wrong = gen2::fm0_decode(gamma, 16, 40e3, 800e3, 0.9);
  EXPECT_FALSE(wrong.valid && wrong.bits == *result.reply);
}

INSTANTIATE_TEST_SUITE_P(Modes, MillerQuery,
                         ::testing::Values(gen2::Miller::kM2,
                                           gen2::Miller::kM4,
                                           gen2::Miller::kM8));

}  // namespace
}  // namespace ivnet
