// Tests for ivnet/tag: the complete battery-free tag device — presets,
// power-up thresholding, downlink decode, backscatter generation.
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/tag/tag_device.hpp"

namespace ivnet {
namespace {

std::vector<double> query_envelope(double amplitude, double fs = 800e3) {
  auto env = gen2::pie_encode(gen2::QueryCommand{.q = 0}.encode(),
                              gen2::PieTiming{}, fs, /*with_preamble=*/true);
  for (auto& v : env) v *= amplitude;
  return env;
}

TEST(TagPresets, StandardVsMiniature) {
  const auto std_cfg = standard_tag();
  const auto mini_cfg = miniature_tag();
  EXPECT_EQ(std_cfg.antenna.name(), "AD-238u8");
  EXPECT_EQ(mini_cfg.antenna.name(), "Dash-On-XS");
  EXPECT_EQ(std_cfg.epc.size(), 96u);
  EXPECT_EQ(mini_cfg.epc.size(), 96u);
  // The miniature antenna must capture far less power (Sec. 2.2.2).
  EXPECT_GT(std_cfg.antenna.effective_aperture_m2(915e6, media::air()) /
                mini_cfg.antenna.effective_aperture_m2(915e6, media::air()),
            10.0);
}

TEST(TagDevice, MinPeakVoltageMatchesHarvester) {
  const TagDevice tag(standard_tag());
  EXPECT_NEAR(tag.min_peak_voltage(),
              tag.harvester().min_steady_amplitude(), 1e-12);
  EXPECT_GT(tag.min_peak_voltage(), standard_tag().harvester.vth_v);
}

TEST(TagDevice, StrongQueryPowersDecodesAndReplies) {
  TagDevice tag(standard_tag());
  const auto result = tag.receive_downlink(query_envelope(2.0), 800e3);
  EXPECT_TRUE(result.powered);
  EXPECT_TRUE(result.command_decoded);
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_EQ(result.reply->size(), 16u);  // RN16
  EXPECT_EQ(tag.state_machine().state(), gen2::TagState::kReply);
  EXPECT_GT(tag.rail_voltage(), 0.0);
}

TEST(TagDevice, WeakFieldNoPowerNoReply) {
  TagDevice tag(standard_tag());
  const auto result = tag.receive_downlink(query_envelope(0.2), 800e3);
  EXPECT_FALSE(result.powered);
  EXPECT_FALSE(result.command_decoded);
  EXPECT_FALSE(result.reply.has_value());
  EXPECT_EQ(tag.state_machine().state(), gen2::TagState::kOff);
}

TEST(TagDevice, ThresholdBetweenWeakAndStrong) {
  TagDevice tag(standard_tag());
  const double v_min = tag.min_peak_voltage();
  TagDevice weak_tag(standard_tag());
  const auto weak =
      weak_tag.receive_downlink(query_envelope(v_min * 0.9), 800e3);
  EXPECT_FALSE(weak.powered);
  TagDevice strong_tag(standard_tag());
  const auto strong =
      strong_tag.receive_downlink(query_envelope(v_min * 1.3), 800e3);
  EXPECT_TRUE(strong.powered);
}

TEST(TagDevice, HarvesterStatePersistsAcrossCalls) {
  TagDevice tag(standard_tag());
  // Charge with CW below decode threshold for commands but above power-up.
  const std::vector<double> cw(40000, 2.0);
  tag.receive_downlink(cw, 800e3);
  const double rail_after_charge = tag.rail_voltage();
  EXPECT_GT(rail_after_charge, 1.0);
  tag.power_loss();
  EXPECT_DOUBLE_EQ(tag.rail_voltage(), 0.0);
  EXPECT_EQ(tag.state_machine().state(), gen2::TagState::kOff);
}

TEST(TagDevice, FullQueryAckExchange) {
  TagDevice tag(standard_tag());
  const auto query_result = tag.receive_downlink(query_envelope(2.0), 800e3);
  ASSERT_TRUE(query_result.reply.has_value());
  const auto rn16 = tag.state_machine().last_rn16();

  // Build an ACK envelope (frame-sync, no preamble).
  auto ack_env = gen2::pie_encode(gen2::AckCommand{.rn16 = rn16}.encode(),
                                  gen2::PieTiming{}, 800e3, false);
  for (auto& v : ack_env) v *= 2.0;
  const auto ack_result = tag.receive_downlink(ack_env, 800e3);
  ASSERT_TRUE(ack_result.reply.has_value());
  EXPECT_EQ(ack_result.reply->size(), 128u);  // PC + EPC + CRC16
  EXPECT_EQ(tag.state_machine().state(), gen2::TagState::kAcknowledged);
}

TEST(TagDevice, BackscatterReflectionLevels) {
  const TagDevice tag(standard_tag());
  const gen2::Bits reply = {true, false, true};
  const auto gamma = tag.backscatter_reflection(reply, 800e3);
  ASSERT_FALSE(gamma.empty());
  const double half = standard_tag().backscatter_depth / 2.0;
  for (double g : gamma) {
    EXPECT_NEAR(std::abs(g), half, 1e-12);
  }
}

TEST(TagDevice, BackscatterCarriesFm0Preamble) {
  const TagDevice tag(standard_tag());
  const gen2::Bits reply(16, true);
  const auto gamma = tag.backscatter_reflection(reply, 800e3);
  const auto decoded = gen2::fm0_decode(gamma, 16, standard_tag().blf_hz,
                                        800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.bits, reply);
}

// Property sweep: decode works across command amplitudes once powered.
class DownlinkAmplitude : public ::testing::TestWithParam<double> {};

TEST_P(DownlinkAmplitude, DecodesWheneverPowered) {
  TagDevice tag(standard_tag());
  const auto result = tag.receive_downlink(query_envelope(GetParam()), 800e3);
  if (result.powered) {
    EXPECT_TRUE(result.command_decoded);
    EXPECT_TRUE(result.reply.has_value());
  } else {
    EXPECT_FALSE(result.reply.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, DownlinkAmplitude,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 5.0));

}  // namespace
}  // namespace ivnet
