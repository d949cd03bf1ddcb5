// Tests for ivnet/rf: antennas (Eq. 3 aperture), propagation (Eq. 2), and
// the blind channel models (Eq. 5).
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/rf/antenna.hpp"
#include "ivnet/rf/channel.hpp"
#include "ivnet/rf/propagation.hpp"
#include "waveform_fixtures.hpp"

namespace ivnet {
namespace {

constexpr double kF = 915e6;

TEST(Antenna, GainConversions) {
  const Antenna a("test", 7.0);
  EXPECT_NEAR(a.gain_linear(), 5.01, 0.01);
}

TEST(Antenna, ApertureFollowsWavelengthSquared) {
  const Antenna iso("iso", 0.0);
  const double a_air = iso.effective_aperture_m2(kF, media::air());
  EXPECT_NEAR(a_air, wavelength(kF) * wavelength(kF) / (4.0 * kPi), 1e-9);
  // In water the wavelength shrinks by sqrt(78), aperture by 78.
  const double a_water = iso.effective_aperture_m2(kF, media::water());
  EXPECT_NEAR(a_air / a_water, 78.0, 0.5);
}

TEST(Antenna, ApertureCapBinds) {
  const Antenna capped("capped", 10.0, 1e-5);
  EXPECT_DOUBLE_EQ(capped.effective_aperture_m2(kF, media::air()), 1e-5);
}

TEST(Antenna, MiniatureApertureFarSmallerThanStandard) {
  const auto std_ant = antennas::standard_tag_antenna();
  const auto mini_ant = antennas::miniature_tag_antenna();
  EXPECT_GT(std_ant.effective_aperture_m2(kF, media::air()) /
                mini_ant.effective_aperture_m2(kF, media::air()),
            20.0);
}

TEST(Antenna, OrientationPatternBoundsAndShape) {
  const Antenna a("test", 2.0);
  EXPECT_NEAR(a.orientation_gain(0.0), 1.0, 1e-12);
  EXPECT_GT(a.orientation_gain(kPi / 2.0), 0.0);  // imperfect null
  EXPECT_LT(a.orientation_gain(kPi / 2.0), 0.05);
  EXPECT_GT(a.orientation_gain(0.3), a.orientation_gain(1.2));
}

TEST(Antenna, PolarizationFactorValidated) {
  Antenna a("test", 0.0);
  a.set_polarization_factor(0.5);
  EXPECT_DOUBLE_EQ(a.polarization_factor(), 0.5);
}

TEST(Propagation, AirFieldInverseDistance) {
  const double e1 = air_field_amplitude(1.0, 0.0, 1.0);
  const double e2 = air_field_amplitude(1.0, 0.0, 2.0);
  EXPECT_NEAR(e1 / e2, 2.0, 1e-12);
  // E = sqrt(60 P G)/r: 1 W isotropic at 1 m -> sqrt(60) V/m.
  EXPECT_NEAR(e1, std::sqrt(60.0), 1e-12);
}

TEST(Propagation, LinkPowerGainQuadraticInAirDistance) {
  const LinkBudget link(antennas::mt242025(), antennas::standard_tag_antenna(),
                        LayeredMedium{});
  const double g1 = link.power_gain({.air_distance_m = 1.0}, kF);
  const double g4 = link.power_gain({.air_distance_m = 2.0}, kF);
  EXPECT_NEAR(g1 / g4, 4.0, 1e-9);
}

TEST(Propagation, LinkMatchesFriisForIsotropicPair) {
  // With G_t = G_r = 0 dBi and no medium, the link should reduce to Friis:
  // P_r/P_t = (lambda / (4 pi r))^2.
  Antenna tx("tx", 0.0), rx("rx", 0.0);
  const LinkBudget link(tx, rx, LayeredMedium{});
  const double r = 3.0;
  const double friis = std::pow(wavelength(kF) / (4.0 * kPi * r), 2.0);
  EXPECT_NEAR(link.power_gain({.air_distance_m = r}, kF) / friis, 1.0, 0.01);
}

TEST(Propagation, DepthAddsExponentialLoss) {
  LayeredMedium stack;
  stack.add_layer(media::muscle(), 0.10);
  const LinkBudget link(antennas::mt242025(), antennas::standard_tag_antenna(),
                        stack);
  const LinkGeometry shallow{.air_distance_m = 0.5, .depth_m = 0.02};
  const LinkGeometry deep{.air_distance_m = 0.5, .depth_m = 0.05};
  const double ratio_db = to_db(link.power_gain(shallow, kF) /
                                link.power_gain(deep, kF));
  // 3 cm of muscle at ~2 dB/cm.
  EXPECT_NEAR(ratio_db, 3.0 * media::muscle().power_loss_db_per_cm(kF), 0.5);
}

TEST(Propagation, VoltageScalesWithSqrtResistance) {
  const LinkBudget link(antennas::mt242025(), antennas::standard_tag_antenna(),
                        LayeredMedium{});
  const LinkGeometry geom{.air_distance_m = 2.0};
  const double v50 = link.voltage_per_sqrt_watt(geom, kF, 50.0);
  const double v200 = link.voltage_per_sqrt_watt(geom, kF, 200.0);
  EXPECT_NEAR(v200 / v50, 2.0, 1e-9);
}

TEST(Channel, BlindChannelHasRequestedAmplitudes) {
  Rng rng(1);
  const std::vector<double> amps = {1.0, 2.0, 0.5};
  const auto ch = make_blind_channel(amps, rng);
  ASSERT_EQ(ch.num_tx(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(ch.gain(i, 0.0)), amps[i], 1e-12);
  }
}

TEST(Channel, MultipathConservesExpectedPower) {
  Rng rng(3);
  const std::vector<double> amps = {1.0};
  double sum = 0.0;
  const int trials = 4000;
  for (int k = 0; k < trials; ++k) {
    const auto ch = make_multipath_channel(amps, 8, 60e-9, rng);
    sum += std::norm(ch.gain(0, 0.0));
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.05);
}

TEST(Channel, MultipathIsFrequencySelective) {
  Rng rng(4);
  const std::vector<double> amps = {1.0};
  const auto ch = make_multipath_channel(amps, 8, 100e-9, rng);
  // Over a 137 Hz CIB offset the channel is flat...
  EXPECT_NEAR(std::abs(ch.gain(0, 0.0)), std::abs(ch.gain(0, 137.0)), 1e-4);
  // ...but over 35 MHz (the out-of-band reader separation) it can differ.
  bool differs = false;
  Rng rng2(5);
  for (int k = 0; k < 20; ++k) {
    const auto c = make_multipath_channel(amps, 8, 100e-9, rng2);
    if (std::abs(std::abs(c.gain(0, 0.0)) - std::abs(c.gain(0, 35e6))) > 0.05) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Channel, ReceiveComposesGains) {
  Rng rng(6);
  const std::vector<double> amps = {1.0, 1.0};
  const auto ch = make_blind_channel(amps, rng);
  std::vector<Waveform> waves;
  waves.push_back(make_tone(0.0, 0.0, 64, 1000.0));
  waves.push_back(make_tone(0.0, 0.0, 64, 1000.0));
  const std::vector<double> offsets = {0.0, 0.0};
  const auto rx = receive(ch, waves, offsets);
  const cplx expect = ch.gain(0, 0.0) + ch.gain(1, 0.0);
  EXPECT_NEAR(std::abs(rx.samples[0] - expect), 0.0, 1e-9);
}

// Property: the blind channel's per-antenna phase is uniform — the empirical
// mean of e^{j beta} over many draws should vanish.
class BlindPhaseUniform : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlindPhaseUniform, MeanPhasorVanishes) {
  Rng rng(GetParam());
  const std::vector<double> amps = {1.0};
  cplx mean{0.0, 0.0};
  const int n = 3000;
  for (int k = 0; k < n; ++k) {
    mean += make_blind_channel(amps, rng).gain(0, 0.0);
  }
  EXPECT_LT(std::abs(mean) / n, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlindPhaseUniform,
                         ::testing::Values(10, 20, 30));

}  // namespace
}  // namespace ivnet
