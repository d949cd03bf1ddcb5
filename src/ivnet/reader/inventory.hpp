// Reader-side inventory engine: the multi-sensor extension of Sec. 3.7
// ("IVN's communication can seamlessly scale to multiple in-vivo sensors
// ... it may incorporate a select command into its query, specifying the
// identifier of the sensor it wishes to communicate with").
//
// Runs a full Gen2 inventory round — Select / Query / QueryRep / ACK — over
// a population of tag state machines at the configured Q, with
// slotted-ALOHA collision handling and an optional capture effect (the
// strongest colliding reply survives). The Gen2 Q-algorithm (AdaptiveQ)
// lives here too; the impaired link session (impair/link_session.hpp)
// steps it through its retries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/gen2/tag_sm.hpp"

namespace ivnet {

struct InventoryConfig {
  std::uint8_t q = 2;          ///< slot-count exponent, clamped to 0..15
  gen2::Session session = gen2::Session::kS0;
  /// Hard stop on slots per round; 0 means "derive from Q" (2^q plus one
  /// slot per tag of collision slack).
  std::size_t max_slots = 128;
  bool use_select = false;     ///< address one sensor before the round
  std::uint8_t select_pointer = 0;
  gen2::Bits select_mask;      ///< EPC prefix of the wanted sensor
  /// Probability that exactly one of >=2 colliding replies is captured
  /// anyway (near/far effect). 0 = every collision is lost. Values outside
  /// [0,1] (or NaN) are clamped into range on construction.
  double capture_probability = 0.0;

  /// The config as InventoryRound will actually run it: q clamped to 15,
  /// capture_probability clamped into [0,1] (NaN -> 0).
  InventoryConfig normalized() const;
};

struct InventoryResult {
  std::vector<gen2::Bits> epcs;  ///< successfully ACKed EPC payloads
  std::size_t slots_used = 0;
  std::size_t collisions = 0;
  std::size_t empty_slots = 0;
  std::size_t crc_failures = 0;
};

/// The Gen2 Q-algorithm (ISO 18000-63 Annex): a floating-point Qfp nudged up
/// by collisions and down by empty slots; the issued Q is round(Qfp). This
/// is how the reader adapts the frame size to an unknown tag population.
struct AdaptiveQConfig {
  double initial_q = 4.0;
  double step = 0.35;      ///< Qfp increment per collision / decrement per empty
  std::uint8_t q_min = 0;
  std::uint8_t q_max = 15;
};

class AdaptiveQ {
 public:
  explicit AdaptiveQ(AdaptiveQConfig config = {});

  void on_collision();  ///< Qfp += step
  void on_empty();      ///< Qfp -= step
  void on_single() {}   ///< a clean read leaves Qfp alone

  std::uint8_t q() const;
  double qfp() const { return qfp_; }

 private:
  AdaptiveQConfig config_;
  double qfp_;
};

/// Executes inventory rounds against in-field tags (bit-level abstraction:
/// the RF power-up question is handled by the session layer; every tag
/// passed in is assumed powered for the duration of the round).
class InventoryRound {
 public:
  explicit InventoryRound(InventoryConfig config);

  const InventoryConfig& config() const { return config_; }

  /// Run one round. Tags must be powered (power_up() already called).
  InventoryResult run(std::span<gen2::TagStateMachine*> tags, Rng& rng) const;

  /// Convenience: repeated rounds until all `tags` are inventoried or
  /// `max_rounds` is exhausted. Returns the union of EPCs found.
  InventoryResult run_until_complete(std::span<gen2::TagStateMachine*> tags,
                                     std::size_t max_rounds, Rng& rng) const;

 private:
  /// Extract the 96-bit EPC payload from a PC+EPC+CRC16 frame; empty if the
  /// CRC fails.
  static gen2::Bits extract_epc(const gen2::Bits& frame);

  InventoryConfig config_;
};

}  // namespace ivnet
