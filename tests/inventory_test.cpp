// Tests for ivnet/reader/inventory: the Sec. 3.7 multi-sensor extension —
// slotted anti-collision rounds and Select-based sensor addressing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "ivnet/reader/inventory.hpp"

namespace ivnet {
namespace {

using gen2::Bits;
using gen2::TagStateMachine;

Bits make_epc(std::uint32_t id) {
  Bits epc;
  gen2::append_bits(epc, 0xE2801160u, 32);
  gen2::append_bits(epc, 0x2000u, 32);
  gen2::append_bits(epc, id, 32);
  return epc;
}

std::vector<std::unique_ptr<TagStateMachine>> make_tags(std::size_t n) {
  std::vector<std::unique_ptr<TagStateMachine>> tags;
  for (std::size_t i = 0; i < n; ++i) {
    tags.push_back(std::make_unique<TagStateMachine>(
        make_epc(static_cast<std::uint32_t>(i + 1)), 1000 + i));
    tags.back()->power_up();
  }
  return tags;
}

std::vector<TagStateMachine*> raw(
    std::vector<std::unique_ptr<TagStateMachine>>& tags) {
  std::vector<TagStateMachine*> ptrs;
  for (auto& t : tags) ptrs.push_back(t.get());
  return ptrs;
}

TEST(Inventory, SingleTagImmediateRead) {
  auto tags = make_tags(1);
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 0;
  Rng rng(1);
  const auto result = InventoryRound(cfg).run(ptrs, rng);
  ASSERT_EQ(result.epcs.size(), 1u);
  EXPECT_EQ(result.epcs[0], make_epc(1));
  EXPECT_EQ(result.collisions, 0u);
  EXPECT_EQ(result.crc_failures, 0u);
}

TEST(Inventory, TwoTagsWithQ0AlwaysCollide) {
  auto tags = make_tags(2);
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 0;  // both tags pick slot 0
  Rng rng(2);
  const auto result = InventoryRound(cfg).run(ptrs, rng);
  EXPECT_TRUE(result.epcs.empty());
  EXPECT_GE(result.collisions, 1u);
}

TEST(Inventory, PopulationResolvedAcrossRounds) {
  auto tags = make_tags(8);
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 4;  // 16 slots per round
  Rng rng(3);
  const auto result = InventoryRound(cfg).run_until_complete(ptrs, 20, rng);
  EXPECT_EQ(result.epcs.size(), 8u);
  // All eight distinct EPCs present.
  for (std::uint32_t id = 1; id <= 8; ++id) {
    EXPECT_NE(std::find(result.epcs.begin(), result.epcs.end(), make_epc(id)),
              result.epcs.end());
  }
}

TEST(Inventory, AckedTagsSitOutFollowingRounds) {
  auto tags = make_tags(3);
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 3;
  Rng rng(4);
  const InventoryRound round(cfg);
  auto first = round.run(ptrs, rng);
  const std::size_t found_first = first.epcs.size();
  // Tags read in round 1 have their inventoried flag set and must not be
  // re-read in round 2.
  auto second = round.run(ptrs, rng);
  for (const auto& epc : second.epcs) {
    EXPECT_EQ(std::find(first.epcs.begin(), first.epcs.end(), epc),
              first.epcs.end());
  }
  EXPECT_LE(first.epcs.size() + second.epcs.size(), 3u);
  EXPECT_GE(found_first, 1u);
}

TEST(Inventory, SelectAddressesOneSensor) {
  // Sec. 3.7: "incorporate a select command into its query, specifying the
  // identifier of the sensor it wishes to communicate with."
  auto tags = make_tags(4);
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 0;  // would collide if everyone answered
  cfg.use_select = true;
  cfg.select_pointer = 64;  // the id word of our EPC layout
  cfg.select_mask.clear();
  gen2::append_bits(cfg.select_mask, 3u, 32);  // tag id 3
  Rng rng(5);
  const auto result = InventoryRound(cfg).run(ptrs, rng);
  ASSERT_EQ(result.epcs.size(), 1u);
  EXPECT_EQ(result.epcs[0], make_epc(3));
  EXPECT_EQ(result.collisions, 0u);
}

TEST(Inventory, CaptureEffectRecoversSomeCollisions) {
  InventoryConfig no_capture;
  no_capture.q = 1;
  InventoryConfig with_capture = no_capture;
  with_capture.capture_probability = 1.0;

  std::size_t base_found = 0, capture_found = 0;
  for (int trial = 0; trial < 10; ++trial) {
    {
      auto tags = make_tags(4);
      auto ptrs = raw(tags);
      Rng rng(100 + trial);
      base_found += InventoryRound(no_capture).run(ptrs, rng).epcs.size();
    }
    {
      auto tags = make_tags(4);
      auto ptrs = raw(tags);
      Rng rng(100 + trial);
      capture_found +=
          InventoryRound(with_capture).run(ptrs, rng).epcs.size();
    }
  }
  EXPECT_GT(capture_found, base_found);
}

TEST(Inventory, UnpoweredTagsInvisible) {
  auto tags = make_tags(2);
  tags[1]->power_loss();  // second tag is below threshold
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 2;
  Rng rng(6);
  const auto result = InventoryRound(cfg).run_until_complete(ptrs, 8, rng);
  ASSERT_EQ(result.epcs.size(), 1u);
  EXPECT_EQ(result.epcs[0], make_epc(1));
}

// Property sweep: any population up to 12 tags is fully inventoried within
// a generous round budget when Q is sized reasonably.
class InventoryComplete : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InventoryComplete, AllTagsFound) {
  auto tags = make_tags(GetParam());
  auto ptrs = raw(tags);
  InventoryConfig cfg;
  cfg.q = 4;
  Rng rng(7777 + GetParam());
  const auto result = InventoryRound(cfg).run_until_complete(ptrs, 30, rng);
  EXPECT_EQ(result.epcs.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Populations, InventoryComplete,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 12u));

// --- Config validation regressions: out-of-range inputs are clamped, never
// --- trusted.

TEST(InventoryConfigValidation, OversizedQIsClampedTo15) {
  InventoryConfig cfg;
  cfg.q = 42;
  EXPECT_EQ(cfg.normalized().q, 15);
  // And the round itself runs on the normalized value without issue.
  auto tags = make_tags(1);
  auto ptrs = raw(tags);
  cfg.max_slots = 4;  // don't actually walk 2^15 slots
  Rng rng(11);
  const auto result = InventoryRound(cfg).run(ptrs, rng);
  EXPECT_LE(result.slots_used, 4u);
}

TEST(InventoryConfigValidation, CaptureProbabilityClampedIntoUnitRange) {
  InventoryConfig cfg;
  cfg.capture_probability = 1.7;
  EXPECT_EQ(cfg.normalized().capture_probability, 1.0);
  cfg.capture_probability = -0.3;
  EXPECT_EQ(cfg.normalized().capture_probability, 0.0);
  cfg.capture_probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(cfg.normalized().capture_probability, 0.0);
  cfg.capture_probability = 0.25;
  EXPECT_EQ(cfg.normalized().capture_probability, 0.25);
}

TEST(InventoryConfigValidation, NanCaptureProbabilityStillResolvesTags) {
  InventoryConfig cfg;
  cfg.q = 3;
  cfg.capture_probability = std::numeric_limits<double>::quiet_NaN();
  auto tags = make_tags(4);
  auto ptrs = raw(tags);
  Rng rng(12);
  const auto result = InventoryRound(cfg).run_until_complete(ptrs, 20, rng);
  EXPECT_EQ(result.epcs.size(), 4u);
}

TEST(InventoryConfigValidation, ZeroMaxSlotsDerivesBudgetFromQ) {
  InventoryConfig cfg;
  cfg.q = 2;
  cfg.max_slots = 0;  // derive: 2^q + population slack
  auto tags = make_tags(6);
  auto ptrs = raw(tags);
  Rng rng(13);
  const auto result = InventoryRound(cfg).run(ptrs, rng);
  EXPECT_GT(result.slots_used, 0u);
  EXPECT_LE(result.slots_used, (1u << cfg.q) + 6u);
}

// --- The Gen2 Q-algorithm.

TEST(AdaptiveQAlgorithm, CollisionsRaiseAndEmptiesLowerQ) {
  AdaptiveQ adapt(AdaptiveQConfig{.initial_q = 4.0, .step = 0.5});
  EXPECT_EQ(adapt.q(), 4);
  adapt.on_collision();
  EXPECT_DOUBLE_EQ(adapt.qfp(), 4.5);
  adapt.on_collision();
  EXPECT_EQ(adapt.q(), 5);
  adapt.on_single();  // clean reads leave Qfp alone
  EXPECT_DOUBLE_EQ(adapt.qfp(), 5.0);
  for (int k = 0; k < 4; ++k) adapt.on_empty();
  EXPECT_EQ(adapt.q(), 3);
}

TEST(AdaptiveQAlgorithm, QfpIsClampedAtBothEnds) {
  AdaptiveQ low(AdaptiveQConfig{.initial_q = 0.0, .step = 1.0, .q_min = 0});
  for (int k = 0; k < 5; ++k) low.on_empty();
  EXPECT_EQ(low.q(), 0);
  AdaptiveQ high(AdaptiveQConfig{.initial_q = 15.0, .step = 1.0,
                                 .q_max = 15});
  for (int k = 0; k < 5; ++k) high.on_collision();
  EXPECT_EQ(high.q(), 15);
}

}  // namespace
}  // namespace ivnet
