// Gen2 tag memory and the access commands (Read / Write / Req_RN).
//
// The paper's motivating applications — "monitoring internal human vital
// signs", drug delivery actuation (Sec. 1) — need more than an EPC: the
// reader must fetch sensor words from (or write actuation words into) the
// tag's USER memory bank after acknowledging it. This module adds the
// bit-level access layer on top of the inventory state machine.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ivnet/gen2/crc.hpp"

namespace ivnet::gen2 {

/// Gen2 memory banks.
enum class MemBank : std::uint8_t {
  kReserved = 0,
  kEpc = 1,
  kTid = 2,
  kUser = 3,
};

/// Word-addressable tag memory (16-bit words, four banks).
class TagMemory {
 public:
  TagMemory();

  /// Read one word; nullopt when out of range.
  std::optional<std::uint16_t> read(MemBank bank, std::size_t word_addr) const;

  /// Write one word; false when out of range or the bank is locked.
  bool write(MemBank bank, std::size_t word_addr, std::uint16_t value);

  /// Lock a bank against writes (kill/access passwords not modelled).
  void lock(MemBank bank) { locked_[static_cast<std::size_t>(bank)] = true; }
  bool is_locked(MemBank bank) const {
    return locked_[static_cast<std::size_t>(bank)];
  }

 private:
  std::array<std::vector<std::uint16_t>, 4> banks_;
  std::array<bool, 4> locked_{};
};

/// Req_RN: '11000001' + RN16 + CRC16. The reader must trade the inventory
/// RN16 for a handle before access commands.
struct ReqRnCommand {
  std::uint16_t rn16 = 0;
  Bits encode() const;
  static std::optional<ReqRnCommand> parse(const Bits& bits);
};

/// Read: '11000010' + bank(2) + word_addr(8, EBV reduced) + word_count(8)
/// + handle(16) + CRC16.
struct ReadCommand {
  MemBank bank = MemBank::kUser;
  std::uint8_t word_addr = 0;
  std::uint8_t word_count = 1;
  std::uint16_t handle = 0;
  Bits encode() const;
  static std::optional<ReadCommand> parse(const Bits& bits);
};

/// Write: '11000011' + bank(2) + word_addr(8) + data(16) + handle(16)
/// + CRC16. (The spec cover-codes data with an RN16; we model it plainly.)
struct WriteCommand {
  MemBank bank = MemBank::kUser;
  std::uint8_t word_addr = 0;
  std::uint16_t data = 0;
  std::uint16_t handle = 0;
  static std::optional<WriteCommand> parse(const Bits& bits);
};

/// Which access command a bit vector encodes (after classify() says it is
/// not an inventory command).
enum class AccessKind { kReqRn, kRead, kWrite, kNone };
AccessKind classify_access(const Bits& bits);

/// Tag-side reply builders.
/// Req_RN reply: new handle + CRC16.
Bits handle_reply(std::uint16_t handle);
/// Read reply: '0' header + data words + handle + CRC16.
Bits read_reply(const std::vector<std::uint16_t>& words, std::uint16_t handle);
/// Write reply: '0' header + handle + CRC16.
Bits write_reply(std::uint16_t handle);

/// Parse a read reply; returns the data words (empty on CRC/handle error).
std::vector<std::uint16_t> parse_read_reply(const Bits& reply,
                                            std::size_t expected_words,
                                            std::uint16_t expected_handle);

}  // namespace ivnet::gen2
