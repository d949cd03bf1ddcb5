#include "ivnet/reader/inventory.hpp"

#include <algorithm>
#include <cmath>

#include "ivnet/obs/obs.hpp"

namespace ivnet {

InventoryConfig InventoryConfig::normalized() const {
  InventoryConfig n = *this;
  n.q = std::min<std::uint8_t>(q, 15);
  if (std::isnan(n.capture_probability)) n.capture_probability = 0.0;
  n.capture_probability = std::clamp(n.capture_probability, 0.0, 1.0);
  return n;
}

AdaptiveQ::AdaptiveQ(AdaptiveQConfig config)
    : config_(config),
      qfp_(std::clamp(config.initial_q, static_cast<double>(config.q_min),
                      static_cast<double>(config.q_max))) {}

void AdaptiveQ::on_collision() {
  qfp_ = std::min(qfp_ + config_.step, static_cast<double>(config_.q_max));
}

void AdaptiveQ::on_empty() {
  qfp_ = std::max(qfp_ - config_.step, static_cast<double>(config_.q_min));
}

std::uint8_t AdaptiveQ::q() const {
  return static_cast<std::uint8_t>(std::lround(qfp_));
}

InventoryRound::InventoryRound(InventoryConfig config)
    : config_(config.normalized()) {}

gen2::Bits InventoryRound::extract_epc(const gen2::Bits& frame) {
  if (frame.size() < 32 || !gen2::check_crc16(frame)) return {};
  return gen2::Bits(frame.begin() + 16, frame.end() - 16);
}

InventoryResult InventoryRound::run(std::span<gen2::TagStateMachine*> tags,
                                    Rng& rng) const {
  const std::uint8_t q = config_.q;
  InventoryResult result;
  obs::count("inventory.rounds");
  obs::observe("inventory.q_issued", static_cast<double>(q));

  if (config_.use_select) {
    gen2::SelectCommand select;
    select.pointer = config_.select_pointer;
    select.mask = config_.select_mask;
    const auto bits = select.encode();
    for (auto* tag : tags) tag->on_command(bits);
  }

  gen2::QueryCommand query;
  query.q = q;
  query.session = config_.session;
  query.sel = config_.use_select ? 3 : 0;  // SL asserted when addressing

  // Collect the replies of the first slot (Query), then iterate QueryRep.
  std::vector<std::pair<gen2::TagStateMachine*, gen2::Bits>> replies;
  auto broadcast = [&](const gen2::Bits& command) {
    replies.clear();
    for (auto* tag : tags) {
      if (auto reply = tag->on_command(command)) {
        replies.emplace_back(tag, *reply);
      }
    }
  };

  broadcast(query.encode());
  // max_slots == 0 means "derive from Q": the whole 2^q frame plus one slot
  // of collision slack per tag.
  const std::size_t derived = (std::size_t{1} << q) + tags.size();
  const std::size_t total_slots =
      config_.max_slots == 0 ? derived : std::min(config_.max_slots, derived);
  for (std::size_t slot = 0; slot < total_slots; ++slot) {
    if (replies.empty()) {
      ++result.empty_slots;
      obs::count("inventory.slots.empty");
    } else {
      gen2::TagStateMachine* winner = nullptr;
      if (replies.size() == 1) {
        winner = replies.front().first;
        obs::count("inventory.slots.single");
      } else {
        ++result.collisions;
        obs::count("inventory.slots.collision");
        if (rng.uniform() < config_.capture_probability) {
          // Capture effect: one (random) reply survives the collision.
          winner = replies[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(replies.size()) -
                                      1))]
                       .first;
        }
      }
      if (winner != nullptr) {
        gen2::AckCommand ack;
        ack.rn16 = winner->last_rn16();
        // The ACK is broadcast; only the matching tag answers with its EPC.
        for (auto* tag : tags) {
          if (auto epc_frame = tag->on_command(ack.encode())) {
            const auto epc = extract_epc(*epc_frame);
            if (epc.empty()) {
              ++result.crc_failures;
              obs::count("inventory.crc_failures");
            } else {
              result.epcs.push_back(epc);
            }
          }
        }
      }
    }
    ++result.slots_used;
    broadcast(gen2::QueryRepCommand{.session = config_.session}.encode());
  }
  return result;
}

namespace {

/// Fold one round's tallies into the running total (EPC union).
void accumulate_round(InventoryResult& total, const InventoryResult& round) {
  total.slots_used += round.slots_used;
  total.collisions += round.collisions;
  total.empty_slots += round.empty_slots;
  total.crc_failures += round.crc_failures;
  for (const auto& epc : round.epcs) {
    if (std::find(total.epcs.begin(), total.epcs.end(), epc) ==
        total.epcs.end()) {
      total.epcs.push_back(epc);
    }
  }
}

}  // namespace

InventoryResult InventoryRound::run_until_complete(
    std::span<gen2::TagStateMachine*> tags, std::size_t max_rounds,
    Rng& rng) const {
  InventoryResult total;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    accumulate_round(total, run(tags, rng));
    if (total.epcs.size() >= tags.size()) break;
  }
  return total;
}

}  // namespace ivnet
