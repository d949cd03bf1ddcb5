#include "ivnet/gen2/memory.hpp"

namespace ivnet::gen2 {

namespace {
constexpr std::uint32_t kReqRnPrefix = 0b11000001;
constexpr std::uint32_t kReadPrefix = 0b11000010;
constexpr std::uint32_t kWritePrefix = 0b11000011;
}  // namespace

TagMemory::TagMemory() {
  banks_[static_cast<std::size_t>(MemBank::kReserved)].resize(4, 0);
  banks_[static_cast<std::size_t>(MemBank::kEpc)].resize(8, 0);
  banks_[static_cast<std::size_t>(MemBank::kTid)].resize(4, 0);
  banks_[static_cast<std::size_t>(MemBank::kUser)].resize(32, 0);
  locked_[static_cast<std::size_t>(MemBank::kTid)] = true;  // factory data
}

std::optional<std::uint16_t> TagMemory::read(MemBank bank,
                                             std::size_t word_addr) const {
  const auto& b = banks_[static_cast<std::size_t>(bank)];
  if (word_addr >= b.size()) return std::nullopt;
  return b[word_addr];
}

bool TagMemory::write(MemBank bank, std::size_t word_addr,
                      std::uint16_t value) {
  if (is_locked(bank)) return false;
  auto& b = banks_[static_cast<std::size_t>(bank)];
  if (word_addr >= b.size()) return false;
  b[word_addr] = value;
  return true;
}

Bits ReqRnCommand::encode() const {
  Bits bits;
  append_bits(bits, kReqRnPrefix, 8);
  append_bits(bits, rn16, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

std::optional<ReqRnCommand> ReqRnCommand::parse(const Bits& bits) {
  if (bits.size() != 40 || read_bits(bits, 0, 8) != kReqRnPrefix) {
    return std::nullopt;
  }
  if (!check_crc16(bits)) return std::nullopt;
  ReqRnCommand cmd;
  cmd.rn16 = static_cast<std::uint16_t>(read_bits(bits, 8, 16));
  return cmd;
}

Bits ReadCommand::encode() const {
  Bits bits;
  append_bits(bits, kReadPrefix, 8);
  append_bits(bits, static_cast<std::uint32_t>(bank), 2);
  append_bits(bits, word_addr, 8);
  append_bits(bits, word_count, 8);
  append_bits(bits, handle, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

std::optional<ReadCommand> ReadCommand::parse(const Bits& bits) {
  if (bits.size() != 58 || read_bits(bits, 0, 8) != kReadPrefix) {
    return std::nullopt;
  }
  if (!check_crc16(bits)) return std::nullopt;
  ReadCommand cmd;
  cmd.bank = static_cast<MemBank>(read_bits(bits, 8, 2));
  cmd.word_addr = static_cast<std::uint8_t>(read_bits(bits, 10, 8));
  cmd.word_count = static_cast<std::uint8_t>(read_bits(bits, 18, 8));
  cmd.handle = static_cast<std::uint16_t>(read_bits(bits, 26, 16));
  return cmd;
}

std::optional<WriteCommand> WriteCommand::parse(const Bits& bits) {
  if (bits.size() != 66 || read_bits(bits, 0, 8) != kWritePrefix) {
    return std::nullopt;
  }
  if (!check_crc16(bits)) return std::nullopt;
  WriteCommand cmd;
  cmd.bank = static_cast<MemBank>(read_bits(bits, 8, 2));
  cmd.word_addr = static_cast<std::uint8_t>(read_bits(bits, 10, 8));
  cmd.data = static_cast<std::uint16_t>(read_bits(bits, 18, 16));
  cmd.handle = static_cast<std::uint16_t>(read_bits(bits, 34, 16));
  return cmd;
}

AccessKind classify_access(const Bits& bits) {
  if (bits.size() < 8) return AccessKind::kNone;
  switch (read_bits(bits, 0, 8)) {
    case kReqRnPrefix:
      return AccessKind::kReqRn;
    case kReadPrefix:
      return AccessKind::kRead;
    case kWritePrefix:
      return AccessKind::kWrite;
    default:
      return AccessKind::kNone;
  }
}

Bits handle_reply(std::uint16_t handle) {
  Bits bits;
  append_bits(bits, handle, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

Bits read_reply(const std::vector<std::uint16_t>& words,
                std::uint16_t handle) {
  Bits bits;
  bits.push_back(false);  // success header
  for (std::uint16_t w : words) append_bits(bits, w, 16);
  append_bits(bits, handle, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

Bits write_reply(std::uint16_t handle) {
  Bits bits;
  bits.push_back(false);
  append_bits(bits, handle, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

std::vector<std::uint16_t> parse_read_reply(const Bits& reply,
                                            std::size_t expected_words,
                                            std::uint16_t expected_handle) {
  const std::size_t expect_size = 1 + 16 * expected_words + 16 + 16;
  if (reply.size() != expect_size || reply[0]) return {};
  if (!check_crc16(reply)) return {};
  const auto handle = static_cast<std::uint16_t>(
      read_bits(reply, 1 + 16 * expected_words, 16));
  if (handle != expected_handle) return {};
  std::vector<std::uint16_t> words(expected_words);
  for (std::size_t i = 0; i < expected_words; ++i) {
    words[i] = static_cast<std::uint16_t>(read_bits(reply, 1 + 16 * i, 16));
  }
  return words;
}

}  // namespace ivnet::gen2
