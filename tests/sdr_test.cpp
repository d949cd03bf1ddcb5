// Tests for ivnet/sdr: PLL phase model (Eq. 5's theta_i), clock distribution
// (Octoclock vs free-running), PA compression, and the synchronized radio
// array.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "ivnet/common/units.hpp"
#include "ivnet/sdr/clock.hpp"
#include "ivnet/sdr/pa.hpp"
#include "ivnet/sdr/pll.hpp"
#include "ivnet/sdr/radio.hpp"
#include "ivnet/signal/envelope.hpp"

namespace ivnet {
namespace {

TEST(Pll, RandomInitialPhaseInRange) {
  Rng rng(1);
  for (int k = 0; k < 100; ++k) {
    const Pll pll(915e6, rng);
    EXPECT_GE(pll.initial_phase(), 0.0);
    EXPECT_LT(pll.initial_phase(), kTwoPi);
  }
}

TEST(Pll, RelockChangesPhase) {
  Rng rng(4);
  Pll pll(915e6, rng);
  const double before = pll.initial_phase();
  pll.relock(rng);
  EXPECT_NE(before, pll.initial_phase());
}

TEST(Clock, OctoclockTightAlignment) {
  Rng rng(5);
  const auto clocks = ClockDistribution::octoclock().distribute(8, rng);
  ASSERT_EQ(clocks.size(), 8u);
  for (const auto& c : clocks) {
    EXPECT_LT(std::abs(c.start_offset_s), 50e-9);
    EXPECT_DOUBLE_EQ(c.ppm_error, 0.0);
  }
}

TEST(Clock, FreeRunningIsWorse) {
  Rng rng(6);
  const auto free = ClockDistribution::free_running().distribute(64, rng);
  double max_skew = 0.0, max_ppm = 0.0;
  for (const auto& c : free) {
    max_skew = std::max(max_skew, std::abs(c.start_offset_s));
    max_ppm = std::max(max_ppm, std::abs(c.ppm_error));
  }
  EXPECT_GT(max_skew, 1e-6);
  EXPECT_GT(max_ppm, 0.5);
}

TEST(Pa, LinearWellBelowCompression) {
  const PowerAmplifier pa(0.0, 30.0);  // unity gain, 30 dBm P1dB
  const double in = std::sqrt(dbm_to_watts(0.0));  // 0 dBm drive
  EXPECT_NEAR(pa.output_amplitude(in) / in, 1.0, 0.01);
}

TEST(Pa, ExactlyOneDbCompressionAtP1db) {
  const PowerAmplifier pa(0.0, 30.0);
  // Drive at which the LINEAR output would be P1dB + 1 dB; actual output
  // must be P1dB exactly (the definition of the 1-dB compression point).
  const double in = std::sqrt(dbm_to_watts(31.0));
  const double out_dbm = watts_to_dbm(std::pow(pa.output_amplitude(in), 2.0));
  EXPECT_NEAR(out_dbm, 30.0, 0.05);
}

TEST(Pa, HardSaturationBound) {
  const PowerAmplifier pa(0.0, 30.0);
  const double out = pa.output_amplitude(100.0);
  EXPECT_LE(out, pa.saturation_amplitude() * 1.0001);
}

TEST(Pa, GainApplied) {
  const PowerAmplifier pa(20.0, 46.0);  // 20 dB gain, generous P1dB
  const double in = std::sqrt(dbm_to_watts(-10.0));
  const double out_dbm = watts_to_dbm(std::pow(pa.output_amplitude(in), 2.0));
  EXPECT_NEAR(out_dbm, 10.0, 0.1);
}

TEST(RadioArray, OffsetsAndPhases) {
  Rng rng(7);
  RadioArrayConfig cfg;
  RadioArray array(4, cfg, rng);
  const std::vector<double> offsets = {0, 7, 20, 49};
  array.tune(offsets);
  EXPECT_EQ(array.offsets_hz(), offsets);
  const auto phases = array.initial_phases();
  ASSERT_EQ(phases.size(), 4u);
  // With an Octoclock, actual offsets equal programmed ones.
  const auto actual = array.actual_offsets_hz();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(actual[i], offsets[i], 1e-9);
}

TEST(RadioArray, TuneRejectsWrongOffsetCount) {
  // One offset per device, checked in every build: a short list would
  // leave actual_offsets_hz() reading past the tuned offsets.
  Rng rng(12);
  RadioArray array(4, RadioArrayConfig{}, rng);
  const std::vector<double> tuned = {0, 7, 20, 49};
  array.tune(tuned);
  EXPECT_THROW(array.tune(std::vector<double>{1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(array.tune(std::vector<double>{1, 2, 3, 4, 5}),
               std::invalid_argument);
  EXPECT_EQ(array.offsets_hz(), tuned);  // a rejected call changes nothing
  try {
    array.tune(std::vector<double>{1, 2, 3});
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('3'), std::string::npos) << what;
    EXPECT_NE(what.find('4'), std::string::npos) << what;
  }
}

TEST(RadioArray, FreeRunningDriftBreaksOffsets) {
  Rng rng(8);
  RadioArrayConfig cfg;
  cfg.clocks = ClockDistribution::free_running();
  RadioArray array(4, cfg, rng);
  const std::vector<double> offs = {0, 7, 20, 49};
  array.tune(offs);
  const auto actual = array.actual_offsets_hz();
  // 2 ppm of 915 MHz is ~1.8 kHz — swamps the Hz-scale CIB offsets.
  double worst = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    worst = std::max(worst, std::abs(actual[i] - array.offsets_hz()[i]));
  }
  EXPECT_GT(worst, 100.0);
}

TEST(RadioArray, TransmitCarriesEnvelopeAtDrivePower) {
  Rng rng(9);
  RadioArrayConfig cfg;
  cfg.drive_dbm = 10.0;
  cfg.pa_p1db_dbm = 30.0;  // linear at this drive
  RadioArray array(2, cfg, rng);
  const std::vector<double> offs = {0.0, 100.0};
  array.tune(offs);
  const std::vector<double> env(256, 1.0);
  const auto waves = array.transmit(env);
  ASSERT_EQ(waves.size(), 2u);
  const double expect_amp = std::sqrt(dbm_to_watts(10.0));
  for (const auto& w : waves) {
    EXPECT_NEAR(std::abs(w.samples[10]), expect_amp, 0.01 * expect_amp);
  }
}

TEST(RadioArray, TransmitModulatesEnvelopeShape) {
  Rng rng(10);
  RadioArray array(1, RadioArrayConfig{}, rng);
  const std::vector<double> offs = {0.0};
  array.tune(offs);
  std::vector<double> env(100, 1.0);
  for (std::size_t i = 40; i < 60; ++i) env[i] = 0.0;  // a PIE-like notch
  const auto waves = array.transmit(env);
  EXPECT_GT(std::abs(waves[0].samples[10]), 0.1);
  EXPECT_NEAR(std::abs(waves[0].samples[50]), 0.0, 1e-12);
}

TEST(RadioArray, RetuneRedrawsPhases) {
  Rng rng(11);
  RadioArray array(3, RadioArrayConfig{}, rng);
  const auto before = array.initial_phases();
  array.retune(rng);
  const auto after = array.initial_phases();
  int changed = 0;
  for (std::size_t i = 0; i < 3; ++i) changed += (before[i] != after[i]);
  EXPECT_EQ(changed, 3);
}

TEST(RadioArray, SynchronizedEnvelopesUnderOctoclock) {
  // The CIB requirement: all antennas' command envelopes align. With ns PPS
  // jitter and us-scale samples, the envelopes must align exactly.
  Rng rng(12);
  RadioArray array(4, RadioArrayConfig{}, rng);
  const std::vector<double> offs = {0, 7, 20, 49};
  array.tune(offs);
  std::vector<double> env(64, 1.0);
  env[32] = 0.0;
  const auto waves = array.transmit(env);
  for (const auto& w : waves) {
    EXPECT_NEAR(std::abs(w.samples[32]), 0.0, 1e-12);
    EXPECT_GT(std::abs(w.samples[31]), 0.1);
  }
}

// Property: PA output power is monotone in input power for any smoothness.
class PaMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PaMonotone, OutputMonotone) {
  const PowerAmplifier pa(0.0, 30.0, GetParam());
  double prev = 0.0;
  for (double in_dbm = -20.0; in_dbm <= 40.0; in_dbm += 2.0) {
    const double out = pa.output_amplitude(std::sqrt(dbm_to_watts(in_dbm)));
    EXPECT_GE(out, prev);
    prev = out;
  }
}

INSTANTIATE_TEST_SUITE_P(Smoothness, PaMonotone,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0));

}  // namespace
}  // namespace ivnet
