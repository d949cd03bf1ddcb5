// Tests for ivnet/media: dielectric physics against the paper's quoted
// ranges (Sec. 2.2.1), and layered-stack composition.
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/media/layered.hpp"
#include "ivnet/media/medium.hpp"
#include "ivnet/sim/scenario.hpp"

namespace ivnet {
namespace {

constexpr double kF = 915e6;

TEST(Medium, AirIsLossless) {
  const auto air = media::air();
  EXPECT_DOUBLE_EQ(air.alpha(kF), 0.0);
  EXPECT_NEAR(std::abs(air.impedance(kF)), kEta0, 0.1);
  EXPECT_NEAR(air.wavelength_in(kF), wavelength(kF), 1e-6);
}

TEST(Medium, TissueAlphaInPaperRange) {
  // Sec. 2.2.1: "alpha can vary between 13 m^-1 and 80 m^-1" for tissues.
  for (const auto& m : {media::muscle(), media::skin(), media::chicken(),
                        media::gastric_fluid(), media::intestinal_fluid(),
                        media::stomach_wall()}) {
    EXPECT_GE(m.alpha(kF), 13.0) << m.name();
    EXPECT_LE(m.alpha(kF), 80.0) << m.name();
  }
}

TEST(Medium, TissueLossPerCmInPaperRange) {
  // Sec. 2.2.1: 2.3 to 6.9 dB/cm for low-GHz RF in tissues (we accept a
  // slightly wider band for the lossy-muscle group).
  for (const auto& m : {media::muscle(), media::skin(),
                        media::gastric_fluid(), media::intestinal_fluid()}) {
    EXPECT_GE(m.power_loss_db_per_cm(kF), 1.8) << m.name();
    EXPECT_LE(m.power_loss_db_per_cm(kF), 6.9) << m.name();
  }
}

TEST(Medium, FatIsMuchLessLossyThanMuscle) {
  EXPECT_LT(media::fat().alpha(kF), media::muscle().alpha(kF) / 3.0);
}

TEST(Medium, WavelengthShrinksWithPermittivity) {
  const auto muscle = media::muscle();
  EXPECT_NEAR(muscle.wavelength_in(kF),
              wavelength(kF) / std::sqrt(muscle.eps_r()), 0.01);
}

TEST(Medium, AlphaIncreasesWithConductivity) {
  const Medium low("low", 50.0, 0.5);
  const Medium high("high", 50.0, 1.5);
  EXPECT_LT(low.alpha(kF), high.alpha(kF));
}

TEST(Medium, AlphaIncreasesWithFrequencyForConductiveMedium) {
  const auto water = media::water();
  EXPECT_LT(water.alpha(400e6), water.alpha(2.4e9));
}

TEST(Medium, ImpedanceDropsWithPermittivity) {
  EXPECT_LT(std::abs(media::water().impedance(kF)), 60.0);
  EXPECT_GT(std::abs(media::fat().impedance(kF)), 120.0);
}

TEST(Boundary, AirToTissueLossInPaperRange) {
  // Sec. 2.2.1: "a loss of around 3-5 dB" at the air-tissue boundary.
  for (const auto& m : {media::muscle(), media::skin(), media::water(),
                        media::gastric_fluid()}) {
    const double loss = boundary_loss_db(media::air(), m, kF);
    EXPECT_GE(loss, 3.0) << m.name();
    EXPECT_LE(loss, 5.0) << m.name();
  }
}

TEST(Boundary, SameMediumIsLossless) {
  const auto m = media::muscle();
  EXPECT_NEAR(boundary_power_transmittance(m, m, kF), 1.0, 1e-9);
}

TEST(Boundary, PowerTransmittanceReciprocal) {
  // Poynting-flux transmittance across a boundary is direction-symmetric
  // for low-loss dielectrics.
  const auto a = media::air();
  const auto w = media::water();
  EXPECT_NEAR(boundary_power_transmittance(a, w, kF),
              boundary_power_transmittance(w, a, kF), 0.02);
}

TEST(Layered, EmptyStackIsTransparent) {
  const LayeredMedium stack;
  const auto t = stack.field_transfer(kF);
  EXPECT_NEAR(std::abs(t), 1.0, 1e-12);
}

TEST(Layered, SingleSlabMatchesManualComputation) {
  LayeredMedium stack;
  const auto muscle = media::muscle();
  stack.add_layer(muscle, 0.05);
  const double expected_mag =
      std::abs(boundary_transmission(media::air(), muscle, kF)) *
      std::exp(-muscle.alpha(kF) * 0.05);
  EXPECT_NEAR(std::abs(stack.field_transfer(kF)), expected_mag, 1e-9);
}

TEST(Layered, LossAccumulatesWithDepth) {
  LayeredMedium stack;
  stack.add_layer(media::muscle(), 0.10);
  double prev = 1.0;
  for (double d = 0.01; d <= 0.10; d += 0.01) {
    const double mag = std::abs(stack.field_transfer_at_depth(kF, d));
    EXPECT_LT(mag, prev);
    prev = mag;
  }
}

TEST(Layered, DepthBeyondStackContinuesInLastMedium) {
  LayeredMedium stack;
  stack.add_layer(media::muscle(), 0.02);
  const double at_edge = std::abs(stack.field_transfer_at_depth(kF, 0.02));
  const double beyond = std::abs(stack.field_transfer_at_depth(kF, 0.03));
  EXPECT_NEAR(beyond, at_edge * std::exp(-media::muscle().alpha(kF) * 0.01),
              1e-9);
}

TEST(Layered, MediumAtDepthSelectsCorrectLayer) {
  LayeredMedium stack;
  stack.add_layer(media::skin(), 0.004).add_layer(media::fat(), 0.02);
  EXPECT_EQ(stack.medium_at_depth(0.002).name(), "skin");
  EXPECT_EQ(stack.medium_at_depth(0.01).name(), "fat");
  EXPECT_EQ(stack.medium_at_depth(0.5).name(), "fat");
}

TEST(Layered, TotalLossDbPositiveAndFiveCmMuscleMatchesPaper) {
  // Sec. 2.2.1: "a loss of 11.5 to 35.4 dB at a depth of 5 cm" plus the
  // 3-5 dB boundary loss.
  LayeredMedium stack;
  stack.add_layer(media::muscle(), 0.05);
  const double loss = stack.total_loss_db(kF);
  EXPECT_GE(loss, 11.5);
  EXPECT_LE(loss, 40.4);
}

TEST(Layered, SwineScenariosHaveExpectedStructure) {
  // The in-vivo scenarios' stacks, each ending in the falcon-tube air gap.
  const auto gastric = swine_gastric_scenario(0.5, 0.0).stack;
  EXPECT_EQ(gastric.layers().size(), 6u);
  EXPECT_GT(gastric.total_loss_db(kF), 20.0);
  const auto subcut = swine_subcutaneous_scenario(0.5).stack;
  EXPECT_EQ(subcut.layers().size(), 3u);
  EXPECT_LT(subcut.total_loss_db(kF), gastric.total_loss_db(kF));
}

// Property: field transfer magnitude is <= 1 through any passive stack.
class PassiveStack : public ::testing::TestWithParam<double> {};

TEST_P(PassiveStack, TransferNeverExceedsUnity) {
  LayeredMedium stack;
  stack.add_layer(media::skin(), 0.004)
      .add_layer(media::fat(), 0.01)
      .add_layer(media::muscle(), GetParam());
  for (double f : {400e6, 915e6, 2.4e9}) {
    EXPECT_LE(std::abs(stack.field_transfer(f)), 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PassiveStack,
                         ::testing::Values(0.0, 0.01, 0.03, 0.07, 0.15));

}  // namespace
}  // namespace ivnet
