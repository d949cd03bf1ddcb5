// Golden-vector tests for the Gen2 encoders: spec-quoted constants checked
// against hand-computed values, so an implementation drift that happens to
// stay self-consistent (encode+decode both wrong) still fails.
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/pie.hpp"
#include "naive_gen2.hpp"

namespace ivnet::gen2 {
namespace {

Bits bits_from_string(const char* s) {
  Bits bits;
  for (; *s != '\0'; ++s) bits.push_back(*s == '1');
  return bits;
}

Bits bits_from_bytes(std::initializer_list<std::uint8_t> bytes) {
  Bits bits;
  for (auto byte : bytes) append_bits(bits, byte, 8);
  return bits;
}

// --- CRC-5: poly x^5 + x^3 + 1, preset 0b01001 (ISO 18000-63 Annex F).

TEST(Crc5Golden, EmptyInputIsThePreset) {
  EXPECT_EQ(crc5({}), 0b01001);
}

TEST(Crc5Golden, HandComputedVectors) {
  // Worked by hand from the shift-register definition.
  EXPECT_EQ(crc5(bits_from_string("1")), 0b11011);
  EXPECT_EQ(crc5(bits_from_string("101")), 30);
  // Query command-code prefix '1000' followed by 13 zero payload bits.
  EXPECT_EQ(crc5(bits_from_string("10000000000000000")), 16);
}

TEST(Crc5Golden, QueryEncodeAppendsMatchingCrc) {
  const auto query = QueryCommand{.q = 7}.encode();
  ASSERT_EQ(query.size(), 22u);
  const Bits payload(query.begin(), query.end() - 5);
  EXPECT_EQ(crc5(payload), 6u);
  EXPECT_EQ(read_bits(query, 17, 5), 6u);
  EXPECT_TRUE(check_crc5(query));
}

// --- CRC-16: CCITT poly 0x1021, preset 0xFFFF, complemented output.

TEST(Crc16Golden, EmptyAndSingleBit) {
  EXPECT_EQ(crc16({}), 0x0000);     // ~0xFFFF
  EXPECT_EQ(crc16(bits_from_string("1")), 0x0001);
}

TEST(Crc16Golden, CheckStringVector) {
  // The canonical CRC-16/CCITT check input "123456789" (ASCII, MSB-first).
  const auto bits = bits_from_bytes({0x31, 0x32, 0x33, 0x34, 0x35, 0x36,
                                     0x37, 0x38, 0x39});
  EXPECT_EQ(crc16(bits), 0xD64E);
}

TEST(Crc16Golden, FrameResidueIsE2F0) {
  // ISO 18000-63 Annex F: a frame followed by its (complemented) CRC-16
  // leaves the non-complemented register at the fixed residue 0x1D0F,
  // i.e. this implementation's complemented recompute equals 0xE2F0.
  const auto frame = bits_from_bytes({0x31, 0x32, 0x33, 0x34});
  Bits with_crc = frame;
  append_bits(with_crc, crc16(frame), 16);
  EXPECT_EQ(crc16(with_crc), 0xE2F0);
  EXPECT_TRUE(check_crc16(with_crc));
}

// --- FM0 preamble: the spec's TRext=0 start-of-frame half-bit pattern.

TEST(Fm0Golden, PreambleHalfBitsMatchSpec) {
  const auto halves = naive::fm0_modulated_halfbits({});
  // Preamble (12 half-bits) + closing dummy data-1 (2 half-bits).
  ASSERT_EQ(halves.size(), 14u);
  const auto expected = bits_from_string("110100100011");
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(halves[i], static_cast<bool>(expected[i])) << "half-bit " << i;
  }
}

TEST(Fm0Golden, PreambleTemplateLevels) {
  // 2 samples per half-bit at fs = 4 * BLF.
  const auto tmpl = fm0_preamble_template(40e3, 160e3);
  ASSERT_EQ(tmpl.size(), 24u);
  const auto expected = bits_from_string("110100100011");
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    EXPECT_EQ(tmpl[i], expected[i / 2] ? 1.0 : -1.0) << "sample " << i;
  }
}

TEST(Fm0Golden, DataEncodingRules) {
  // After the preamble (ends high): every symbol starts with an inversion,
  // data-0 adds a mid-symbol inversion, data-1 holds its level.
  const auto halves = naive::fm0_modulated_halfbits(bits_from_string("10"));
  // preamble(12) + '1'(2) + '0'(2) + dummy-1(2)
  ASSERT_EQ(halves.size(), 18u);
  EXPECT_EQ(halves[12], false);  // '1': invert off the high preamble tail
  EXPECT_EQ(halves[13], false);  //      ...and hold
  EXPECT_EQ(halves[14], true);   // '0': invert again
  EXPECT_EQ(halves[15], false);  //      ...and invert mid-symbol
  EXPECT_EQ(halves[16], true);   // dummy '1': invert and hold
  EXPECT_EQ(halves[17], true);
}

// --- PIE: edge timings of the encoded envelope against RTcal/TRcal.

TEST(PieGolden, DefaultTimingRelations) {
  const PieTiming t;
  EXPECT_DOUBLE_EQ(t.rtcal_s(), t.data0_s() + t.data1_s());
  EXPECT_DOUBLE_EQ(t.rtcal_s(), 3.0 * t.tari_s);
  EXPECT_DOUBLE_EQ(t.trcal_s(), 5.0 * t.tari_s);
  EXPECT_DOUBLE_EQ(t.pw_s(), 0.5 * t.tari_s);
}

std::vector<std::size_t> falling_edges(const std::vector<double>& env) {
  std::vector<std::size_t> falls;
  for (std::size_t i = 1; i < env.size(); ++i) {
    if (env[i - 1] >= 0.5 && env[i] < 0.5) falls.push_back(i);
  }
  return falls;
}

TEST(PieGolden, PreambleEdgeIntervals) {
  // fs = 800 kHz, Tari = 25 us -> 20 samples; PW = 10; delimiter = 10.
  const PieTiming t;
  const double fs = 800e3;
  const auto env = pie_encode(bits_from_string("01"), t, fs, true);
  const auto falls = falling_edges(env);
  // Falls: delimiter, data-0, RTcal, TRcal, data-0, data-1.
  ASSERT_EQ(falls.size(), 6u);
  // Interval between falls k and k+1 equals the length of symbol k+1
  // (delimiter low is 12.5 us = PW, so delimiter->data-0 is one Tari).
  EXPECT_EQ(falls[1] - falls[0], 20u);   // data-0 reference: 1 Tari
  EXPECT_EQ(falls[2] - falls[1], 60u);   // RTcal = 3 Tari
  EXPECT_EQ(falls[3] - falls[2], 100u);  // TRcal = 5 Tari
  EXPECT_EQ(falls[4] - falls[3], 20u);   // payload '0'
  EXPECT_EQ(falls[5] - falls[4], 40u);   // payload '1' = 2 Tari

  const auto decoded = pie_decode(env, fs);
  ASSERT_TRUE(decoded.valid);
  EXPECT_TRUE(decoded.saw_preamble);
  EXPECT_EQ(decoded.bits, bits_from_string("01"));
  EXPECT_NEAR(decoded.measured_rtcal_s, t.rtcal_s(), 2.0 / fs);
  EXPECT_NEAR(decoded.measured_trcal_s, t.trcal_s(), 2.0 / fs);
}

TEST(PieGolden, FrameSyncOmitsTrcal) {
  const PieTiming t;
  const auto env = pie_encode(bits_from_string("0"), t, 800e3, false);
  const auto falls = falling_edges(env);
  // Falls: delimiter, data-0, RTcal, payload '0' — no TRcal symbol.
  ASSERT_EQ(falls.size(), 4u);
  EXPECT_EQ(falls[2] - falls[1], 60u);
  const auto decoded = pie_decode(env, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_FALSE(decoded.saw_preamble);
}

}  // namespace
}  // namespace ivnet::gen2
