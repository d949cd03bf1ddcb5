// Tests for ivnet/gen2/memory + ivnet/tag/sensor: tag memory banks, the
// Req_RN / Read / Write access layer, and the gastric sensor publishing
// vital signs into USER memory.
#include <gtest/gtest.h>

#include "ivnet/gen2/memory.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/tag/sensor.hpp"

namespace ivnet::gen2 {
namespace {

/// A reader's Write command bits: '11000011' + bank(2) + word_addr(8) +
/// data(16) + handle(16) + CRC16, the layout WriteCommand::parse reads.
Bits encode(const WriteCommand& cmd) {
  Bits bits;
  append_bits(bits, 0b11000011, 8);
  append_bits(bits, static_cast<std::uint32_t>(cmd.bank), 2);
  append_bits(bits, cmd.word_addr, 8);
  append_bits(bits, cmd.data, 16);
  append_bits(bits, cmd.handle, 16);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

TEST(TagMemory, BankSizesAndDefaults) {
  TagMemory mem;
  EXPECT_EQ(mem.read(MemBank::kUser, 0).value(), 0u);
  EXPECT_TRUE(mem.read(MemBank::kUser, 31).has_value());
  EXPECT_FALSE(mem.read(MemBank::kUser, 32).has_value());
  EXPECT_TRUE(mem.read(MemBank::kEpc, 7).has_value());
  EXPECT_FALSE(mem.read(MemBank::kEpc, 8).has_value());
  EXPECT_FALSE(mem.read(MemBank::kUser, 999).has_value());
}

TEST(TagMemory, WriteReadRoundTrip) {
  TagMemory mem;
  EXPECT_TRUE(mem.write(MemBank::kUser, 5, 0xBEEF));
  EXPECT_EQ(mem.read(MemBank::kUser, 5).value(), 0xBEEF);
  EXPECT_FALSE(mem.write(MemBank::kUser, 999, 1));
}

TEST(TagMemory, LockPreventsWrites) {
  TagMemory mem;
  EXPECT_TRUE(mem.is_locked(MemBank::kTid));  // factory locked
  EXPECT_FALSE(mem.write(MemBank::kTid, 0, 1));
  mem.lock(MemBank::kUser);
  EXPECT_FALSE(mem.write(MemBank::kUser, 0, 1));
}

TEST(AccessCommands, EncodeParseRoundTrips) {
  const ReqRnCommand req{.rn16 = 0x1234};
  auto parsed_req = ReqRnCommand::parse(req.encode());
  ASSERT_TRUE(parsed_req.has_value());
  EXPECT_EQ(parsed_req->rn16, 0x1234);

  const ReadCommand read{.bank = MemBank::kUser,
                         .word_addr = 7,
                         .word_count = 3,
                         .handle = 0xABCD};
  auto parsed_read = ReadCommand::parse(read.encode());
  ASSERT_TRUE(parsed_read.has_value());
  EXPECT_EQ(parsed_read->bank, MemBank::kUser);
  EXPECT_EQ(parsed_read->word_addr, 7);
  EXPECT_EQ(parsed_read->word_count, 3);
  EXPECT_EQ(parsed_read->handle, 0xABCD);

  const WriteCommand write{.bank = MemBank::kUser,
                           .word_addr = 2,
                           .data = 0x5A5A,
                           .handle = 0xABCD};
  auto parsed_write = WriteCommand::parse(encode(write));
  ASSERT_TRUE(parsed_write.has_value());
  EXPECT_EQ(parsed_write->data, 0x5A5A);
}

TEST(AccessCommands, CrcGuardsCommands) {
  auto bits = ReadCommand{}.encode();
  bits[20] = !bits[20];
  EXPECT_FALSE(ReadCommand::parse(bits).has_value());
}

TEST(AccessCommands, ClassifyAccess) {
  EXPECT_EQ(classify_access(ReqRnCommand{}.encode()), AccessKind::kReqRn);
  EXPECT_EQ(classify_access(ReadCommand{}.encode()), AccessKind::kRead);
  EXPECT_EQ(classify_access(encode(WriteCommand{})), AccessKind::kWrite);
  EXPECT_EQ(classify_access(QueryCommand{}.encode()), AccessKind::kNone);
}

TEST(AccessCommands, ReadReplyRoundTrip) {
  const std::vector<std::uint16_t> words = {0x1111, 0x2222};
  const auto reply = read_reply(words, 0xFEED);
  EXPECT_EQ(parse_read_reply(reply, 2, 0xFEED), words);
  EXPECT_TRUE(parse_read_reply(reply, 2, 0xBEEF).empty());  // wrong handle
  EXPECT_TRUE(parse_read_reply(reply, 3, 0xFEED).empty());  // wrong count
}

class AccessSession : public ::testing::Test {
 protected:
  AccessSession() : tag_(make_epc(), 7) {
    tag_.power_up();
    const auto rn = tag_.on_command(QueryCommand{.q = 0}.encode());
    EXPECT_TRUE(rn.has_value());
    const auto epc =
        tag_.on_command(AckCommand{.rn16 = tag_.last_rn16()}.encode());
    EXPECT_TRUE(epc.has_value());
  }

  static Bits make_epc() {
    Bits epc;
    append_bits(epc, 0xE200u, 16);
    for (int i = 0; i < 5; ++i) append_bits(epc, 0x1234u, 16);
    return epc;
  }

  std::uint16_t secure() {
    const auto reply =
        tag_.on_command(ReqRnCommand{.rn16 = tag_.last_rn16()}.encode());
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(tag_.state(), TagState::kOpen);
    return tag_.handle();
  }

  TagStateMachine tag_;
};

TEST_F(AccessSession, ReqRnIssuesHandle) {
  const auto handle = secure();
  EXPECT_NE(handle, 0);
}

TEST_F(AccessSession, ReqRnRejectedWithWrongRn16) {
  const auto wrong = static_cast<std::uint16_t>(tag_.last_rn16() ^ 1);
  EXPECT_FALSE(tag_.on_command(ReqRnCommand{.rn16 = wrong}.encode())
                   .has_value());
  EXPECT_EQ(tag_.state(), TagState::kAcknowledged);
}

TEST_F(AccessSession, ReadFetchesMemory) {
  tag_.memory().write(MemBank::kUser, 0, 3860);
  tag_.memory().write(MemBank::kUser, 1, 220);
  const auto handle = secure();
  const auto reply = tag_.on_command(
      ReadCommand{.bank = MemBank::kUser, .word_addr = 0, .word_count = 2,
                  .handle = handle}
          .encode());
  ASSERT_TRUE(reply.has_value());
  const auto words = parse_read_reply(*reply, 2, handle);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], 3860);
  EXPECT_EQ(words[1], 220);
}

TEST_F(AccessSession, ReadSilentWithWrongHandle) {
  const auto handle = secure();
  EXPECT_FALSE(
      tag_.on_command(ReadCommand{.bank = MemBank::kUser,
                                  .word_addr = 0,
                                  .word_count = 1,
                                  .handle = static_cast<std::uint16_t>(
                                      handle ^ 0xFF)}
                          .encode())
          .has_value());
}

TEST_F(AccessSession, WriteThenReadBack) {
  const auto handle = secure();
  const auto wr = tag_.on_command(encode(WriteCommand{
      .bank = MemBank::kUser, .word_addr = 9, .data = 0xCAFE, .handle = handle}));
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(tag_.memory().read(MemBank::kUser, 9).value(), 0xCAFE);
}

TEST_F(AccessSession, WriteToLockedBankSilent) {
  const auto handle = secure();
  tag_.memory().lock(MemBank::kUser);
  EXPECT_FALSE(tag_.on_command(encode(WriteCommand{.bank = MemBank::kUser,
                                                   .word_addr = 0,
                                                   .data = 1,
                                                   .handle = handle}))
                   .has_value());
}

TEST_F(AccessSession, AccessRequiresOpenState) {
  // Without Req_RN the tag ignores Read.
  EXPECT_FALSE(tag_.on_command(ReadCommand{.bank = MemBank::kUser,
                                           .word_addr = 0,
                                           .word_count = 1,
                                           .handle = 0}
                                   .encode())
                   .has_value());
}

}  // namespace
}  // namespace ivnet::gen2

namespace ivnet {
namespace {

TEST(GastricSensor, PublishesAllWords) {
  gen2::TagMemory mem;
  GastricSensor sensor(1);
  ASSERT_TRUE(sensor.publish(0.0, mem));
  const auto temp = mem.read(gen2::MemBank::kUser,
                             static_cast<std::size_t>(SensorWord::kTemperature));
  const auto ph =
      mem.read(gen2::MemBank::kUser, static_cast<std::size_t>(SensorWord::kPh));
  const auto counter = mem.read(gen2::MemBank::kUser,
                                static_cast<std::size_t>(SensorWord::kCounter));
  ASSERT_TRUE(temp && ph && counter);
  EXPECT_NEAR(GastricSensor::decode_temperature(*temp), 38.6, 0.5);
  EXPECT_NEAR(GastricSensor::decode_ph(*ph), 2.2, 0.4);
  EXPECT_EQ(*counter, 1u);
}

TEST(GastricSensor, CounterIncrements) {
  gen2::TagMemory mem;
  GastricSensor sensor(2);
  for (int k = 0; k < 5; ++k) sensor.publish(k * 1.0, mem);
  EXPECT_EQ(sensor.samples_published(), 5u);
  EXPECT_EQ(mem.read(gen2::MemBank::kUser,
                     static_cast<std::size_t>(SensorWord::kCounter))
                .value(),
            5u);
}

TEST(GastricSensor, BreathingModulatesPressure) {
  gen2::TagMemory mem;
  GastricSensor sensor(3);
  sensor.pressure_model.noise_sigma = 0.0;
  double lo = 1e9, hi = -1e9;
  for (double t = 0.0; t < 4.0; t += 0.25) {
    sensor.publish(t, mem);
    const double p = GastricSensor::decode_pressure(
        mem.read(gen2::MemBank::kUser,
                 static_cast<std::size_t>(SensorWord::kPressure))
            .value());
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi - lo, 2.0);  // respiratory swing visible
}

TEST(GastricSensor, EncodingsRoundTrip) {
  EXPECT_NEAR(GastricSensor::decode_temperature(
                  GastricSensor::encode_temperature(37.42)),
              37.42, 0.01);
  EXPECT_NEAR(GastricSensor::decode_ph(GastricSensor::encode_ph(7.01)), 7.01,
              0.01);
  EXPECT_NEAR(GastricSensor::decode_pressure(
                  GastricSensor::encode_pressure(12.3)),
              12.3, 0.1);
}

TEST(GastricSensor, EncodingsClampOutOfRange) {
  EXPECT_EQ(GastricSensor::encode_ph(-3.0), 0u);
  EXPECT_EQ(GastricSensor::encode_ph(99.0), 1400u);
}

}  // namespace
}  // namespace ivnet
