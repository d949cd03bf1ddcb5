// Tests for ivnet/gen2: CRCs, PIE encode/decode, FM0 encode/decode (with the
// paper's 12-bit preamble and 0.8 correlation criterion), the one-pass record
// kernels and the streaming PIE slicer against their oracles, commands, and
// the tag inventory state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "ivnet/common/rng.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "naive_gen2.hpp"

namespace ivnet::gen2 {
namespace {

Bits random_bits(std::size_t n, Rng& rng) {
  Bits bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.uniform() < 0.5;
  return bits;
}

TEST(Crc, AppendBitsRoundTrip) {
  Bits bits;
  append_bits(bits, 0b1011, 4);
  append_bits(bits, 0xABCD, 16);
  ASSERT_EQ(bits.size(), 20u);
  EXPECT_EQ(read_bits(bits, 0, 4), 0b1011u);
  EXPECT_EQ(read_bits(bits, 4, 16), 0xABCDu);
}

TEST(Crc, Crc5RoundTrip) {
  Rng rng(1);
  for (int k = 0; k < 50; ++k) {
    Bits payload = random_bits(17, rng);
    Bits framed = payload;
    append_bits(framed, crc5(payload), 5);
    EXPECT_TRUE(check_crc5(framed));
    framed[3] = !framed[3];
    EXPECT_FALSE(check_crc5(framed));
  }
}

TEST(Crc, Crc16RoundTripAndErrorDetection) {
  Rng rng(2);
  for (int k = 0; k < 50; ++k) {
    Bits payload = random_bits(96, rng);
    Bits framed = payload;
    append_bits(framed, crc16(payload), 16);
    EXPECT_TRUE(check_crc16(framed));
    const auto flip = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(framed.size()) - 1));
    framed[flip] = !framed[flip];
    EXPECT_FALSE(check_crc16(framed));
  }
}

TEST(Crc, Crc16KnownValue) {
  // CRC-16/CCITT-FALSE of "123456789" (as bytes MSB-first) is 0x29B1;
  // the Gen2 variant transmits the complement.
  Bits bits;
  for (char c : std::string("123456789")) {
    append_bits(bits, static_cast<std::uint32_t>(c), 8);
  }
  EXPECT_EQ(crc16(bits), static_cast<std::uint16_t>(~0x29B1));
}

TEST(Pie, EncodeDecodeRoundTripWithPreamble) {
  Rng rng(3);
  const PieTiming timing;
  for (int k = 0; k < 20; ++k) {
    const Bits bits = random_bits(22, rng);
    const auto env = pie_encode(bits, timing, 800e3, /*with_preamble=*/true);
    const auto decoded = pie_decode(env, 800e3);
    ASSERT_TRUE(decoded.valid);
    EXPECT_TRUE(decoded.saw_preamble);
    EXPECT_EQ(decoded.bits, bits);
    EXPECT_NEAR(decoded.measured_rtcal_s, timing.rtcal_s(), 2e-6);
    EXPECT_NEAR(decoded.measured_trcal_s, timing.trcal_s(), 2e-6);
  }
}

TEST(Pie, EncodeDecodeRoundTripFrameSync) {
  const Bits bits = {true, false, true, true};
  const auto env = pie_encode(bits, PieTiming{}, 800e3, /*with_preamble=*/false);
  const auto decoded = pie_decode(env, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_FALSE(decoded.saw_preamble);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Pie, DecodeSurvivesAmplitudeScaling) {
  const Bits bits = {true, false, false, true, true, false};
  auto env = pie_encode(bits, PieTiming{}, 800e3, true);
  for (auto& v : env) v *= 0.037;  // attenuated but clean
  const auto decoded = pie_decode(env, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Pie, DecodeToleratesModerateEnvelopeRipple) {
  // Eq. 7: fluctuation below alpha = 0.5 must still decode.
  const Bits bits = {true, false, true, false, true};
  auto env = pie_encode(bits, PieTiming{}, 800e3, true);
  for (std::size_t i = 0; i < env.size(); ++i) {
    env[i] *= 1.0 - 0.3 * 0.5 * (1.0 + std::sin(0.0008 * double(i)));
  }
  const auto decoded = pie_decode(env, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Pie, DecodeRejectsExcessiveFluctuation) {
  // Fluctuation beyond 0.5 breaks envelope slicing (Sec. 3.6(b)).
  const Bits bits = {true, false, true, false, true};
  auto env = pie_encode(bits, PieTiming{}, 800e3, true);
  // 70% envelope swing with several dips inside the command window: the
  // carrier highs fall below the slicing threshold and decoding breaks.
  for (std::size_t i = 0; i < env.size(); ++i) {
    env[i] *= 1.0 - 0.35 * (1.0 + std::sin(0.02 * double(i)));
  }
  const auto decoded = pie_decode(env, 800e3);
  EXPECT_FALSE(decoded.valid && decoded.bits == bits);
}

TEST(Fm0, PreambleIsThePaperPattern) {
  // Sec. 6.2: preamble "110100100011".
  const auto& p = fm0_preamble_halfbits();
  const std::vector<bool> expect = {1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1};
  EXPECT_EQ(p, expect);
}

TEST(Fm0, EncodeObeysBoundaryInversions) {
  const Bits bits = {true, false, true, true, false};
  const auto halves = naive::fm0_modulated_halfbits(bits);
  // After the 12 preamble halves: every symbol starts by inverting the
  // previous half; data-0 inverts again mid-symbol.
  bool prev = halves[11];
  for (std::size_t b = 0; b < bits.size(); ++b) {
    const bool h0 = halves[12 + 2 * b];
    const bool h1 = halves[12 + 2 * b + 1];
    EXPECT_NE(h0, prev);
    if (bits[b]) {
      EXPECT_EQ(h0, h1);
    } else {
      EXPECT_NE(h0, h1);
    }
    prev = h1;
  }
}

TEST(Fm0, ModulateDecodeRoundTripClean) {
  Rng rng(4);
  for (int k = 0; k < 20; ++k) {
    const Bits bits = random_bits(16, rng);
    const auto sig = fm0_modulate(bits, 40e3, 800e3);
    const auto decoded = fm0_decode(sig, 16, 40e3, 800e3);
    ASSERT_TRUE(decoded.valid);
    EXPECT_EQ(decoded.bits, bits);
    EXPECT_GT(decoded.preamble_correlation, 0.99);
  }
}

TEST(Fm0, DecodeHandlesPolarityInversion) {
  const Bits bits = {true, false, false, true, true, false, true, false,
                     true, true, false, false, true, false, true, true};
  auto sig = fm0_modulate(bits, 40e3, 800e3);
  for (auto& s : sig) s = -s;
  const auto decoded = fm0_decode(sig, 16, 40e3, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_TRUE(decoded.inverted);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Fm0, DecodeFindsDelayedBurst) {
  Rng rng(5);
  const Bits bits = random_bits(16, rng);
  auto sig = fm0_modulate(bits, 40e3, 800e3);
  std::vector<double> padded(311, 0.0);
  padded.insert(padded.end(), sig.begin(), sig.end());
  padded.insert(padded.end(), 200, 0.0);
  const auto decoded = fm0_decode(padded, 16, 40e3, 800e3);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.preamble_offset, 311u);
  EXPECT_EQ(decoded.bits, bits);
}

TEST(Fm0, CorrelationThresholdGatesNoise) {
  Rng rng(6);
  std::vector<double> noise(4000);
  for (auto& v : noise) v = rng.normal();
  const auto decoded = fm0_decode(noise, 16, 40e3, 800e3, 0.8);
  EXPECT_FALSE(decoded.valid);
  EXPECT_LT(decoded.preamble_correlation, 0.8);
}

// Property sweep: FM0 decoding vs AWGN. High SNR must decode; the 0.8
// correlation gate must reject heavy noise.
class Fm0Noise : public ::testing::TestWithParam<double> {};

TEST_P(Fm0Noise, DecodesAboveGateSnr) {
  const double snr_db = GetParam();
  Rng rng(static_cast<std::uint64_t>(snr_db * 10 + 1000));
  const Bits bits = random_bits(16, rng);
  auto sig = fm0_modulate(bits, 40e3, 800e3);
  const double sigma = std::pow(10.0, -snr_db / 20.0);
  for (auto& s : sig) s += rng.normal(0.0, sigma);
  const auto decoded = fm0_decode(sig, 16, 40e3, 800e3);
  if (snr_db >= 10.0) {
    EXPECT_TRUE(decoded.valid) << "snr " << snr_db;
    EXPECT_EQ(decoded.bits, bits);
  }
  // At very low SNR the correlation gate must hold the line.
  if (snr_db <= -10.0) {
    EXPECT_FALSE(decoded.valid) << "snr " << snr_db;
  }
}

INSTANTIATE_TEST_SUITE_P(SnrSweep, Fm0Noise,
                         ::testing::Values(-15.0, -10.0, 10.0, 15.0, 25.0));

TEST(Fm0, DecodeAcrossSampleRates) {
  // The decoder keeps its preamble filter between calls; a new sample rate
  // must rebuild it.
  Rng rng(7);
  for (const double fs : {800e3, 1.6e6, 320e3, 800e3, 1.6e6}) {
    const Bits bits = random_bits(32, rng);
    const auto decoded = fm0_decode(fm0_modulate(bits, 40e3, fs), 32, 40e3, fs);
    ASSERT_TRUE(decoded.valid) << "fs " << fs;
    EXPECT_EQ(decoded.bits, bits) << "fs " << fs;
    EXPECT_GT(decoded.preamble_correlation, 0.99) << "fs " << fs;
  }
}

// The one-pass record kernels and the streaming PIE slicer against the
// loops they replaced (naive_gen2.hpp): records memcmp-equal, decode
// results equal field by field, doubles by their bits.

bool same_samples(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_decode(const PieDecodeResult& fast,
                        const PieDecodeResult& oracle,
                        const std::string& what) {
  EXPECT_EQ(fast.valid, oracle.valid) << what;
  EXPECT_EQ(fast.saw_preamble, oracle.saw_preamble) << what;
  EXPECT_EQ(fast.bits, oracle.bits) << what;
  EXPECT_TRUE(same_bits(fast.measured_rtcal_s, oracle.measured_rtcal_s))
      << what;
  EXPECT_TRUE(same_bits(fast.measured_trcal_s, oracle.measured_trcal_s))
      << what;
}

TEST(RecordOracle, PieEncodeMatchesRunByRunBuild) {
  PieTiming short_tari;
  short_tari.tari_s = 12.5e-6;
  short_tari.data1_factor = 1.5;
  short_tari.pw_factor = 0.35;
  short_tari.delimiter_s = 12.5e-6;
  Rng rng(11);
  for (const PieTiming& timing : {PieTiming{}, short_tari}) {
    for (const double fs : {160e3, 800e3, 1.6e6}) {
      for (std::size_t n = 0; n <= 200; ++n) {
        const Bits bits = random_bits(n, rng);
        for (const bool preamble : {true, false}) {
          std::size_t high = 0;
          const auto env = pie_encode(bits, timing, fs, preamble, &high);
          ASSERT_TRUE(same_samples(
              env, naive::pie_encode(bits, timing, fs, preamble)))
              << "fs " << fs << " bits " << n << " preamble " << preamble;
          ASSERT_EQ(high, static_cast<std::size_t>(
                              std::count(env.begin(), env.end(), 1.0)));
        }
      }
    }
  }
}

TEST(RecordOracle, Fm0AndMillerMatchPerLevelInsert) {
  Rng rng(12);
  for (const double fs : {160e3, 800e3, 1.6e6}) {
    for (std::size_t n = 0; n <= 200; ++n) {
      const Bits bits = random_bits(n, rng);
      ASSERT_TRUE(same_samples(fm0_modulate(bits, 40e3, fs),
                               naive::fm0_modulate(bits, 40e3, fs)))
          << "fm0 fs " << fs << " bits " << n;
      for (const Miller mode : {Miller::kM2, Miller::kM4, Miller::kM8}) {
        ASSERT_TRUE(same_samples(miller_modulate(mode, bits, 40e3, fs),
                                 naive::miller_modulate(mode, bits, 40e3, fs)))
            << "miller " << miller_m(mode) << " fs " << fs << " bits " << n;
      }
    }
  }
}

TEST(RecordOracle, Fm0DecodeMatchesPerHalfDecoder) {
  // Noisy records of odd and even lengths at either polarity, delayed,
  // truncated to the exact frame (an odd final symbol's group then reads
  // the dummy's halves at the record's end) and one sample short.
  Rng rng(14);
  for (const double fs : {800e3, 1.6e6}) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 15u, 16u, 17u, 33u, 128u}) {
      for (const double snr_db : {-12.0, -3.0, 4.0, 10.0, 30.0}) {
        const double sigma = std::pow(10.0, -snr_db / 20.0);
        const Bits bits = random_bits(n, rng);
        std::vector<double> x(static_cast<std::size_t>(rng() % 40), 0.0);
        for (const double v : fm0_modulate(bits, 40e3, fs)) x.push_back(v);
        x.resize(x.size() + static_cast<std::size_t>(rng() % 3) * 7, 0.0);
        const double polarity = n % 2 == 0 ? 1.0 : -1.0;
        for (auto& v : x) v = polarity * v + rng.normal(0.0, sigma);
        const std::size_t frame = x.size();
        for (const std::size_t size : {frame, frame - 1}) {
          const std::span<const double> window(x.data(), size);
          const auto fast = fm0_decode(window, n, 40e3, fs, 0.5);
          const auto oracle = naive::fm0_decode(window, n, 40e3, fs, 0.5);
          const std::string what = "fs " + std::to_string(fs) + " bits " +
                                   std::to_string(n) + " snr " +
                                   std::to_string(snr_db);
          EXPECT_EQ(fast.valid, oracle.valid) << what;
          EXPECT_EQ(fast.bits, oracle.bits) << what;
          EXPECT_TRUE(same_bits(fast.preamble_correlation,
                                oracle.preamble_correlation))
              << what;
          EXPECT_EQ(fast.preamble_offset, oracle.preamble_offset) << what;
          EXPECT_EQ(fast.inverted, oracle.inverted) << what;
        }
      }
    }
  }
}

TEST(RecordOracle, PieDecodeMatchesThreePassSlicer) {
  Rng rng(13);
  const PieTiming timing;
  const std::vector<std::pair<const char*, std::vector<double>>> clean = {
      {"query", pie_encode(QueryCommand{.q = 3}.encode(), timing, 800e3,
                           true)},
      {"ack", pie_encode(AckCommand{.rn16 = 0x5a3c}.encode(), timing, 800e3,
                         false)},
  };
  // Noisy, scaled commands from -5 to 40 dB: most low-SNR envelopes stop
  // at the fluctuation check, the rest exercise every edge and interval
  // branch (spurious edges included).
  for (const auto& [name, env] : clean) {
    for (double snr_db = -5.0; snr_db <= 40.0; snr_db += 1.5) {
      const double sigma = std::pow(10.0, -snr_db / 20.0);
      for (const double scale : {1.0, 0.037, 250.0}) {
        for (int k = 0; k < 6; ++k) {
          std::vector<double> x = env;
          for (auto& v : x) v = scale * (v + rng.normal(0.0, sigma));
          for (const double alpha : {0.5, 0.9, 2.0}) {
            expect_same_decode(pie_decode(x, 800e3, alpha),
                               naive::pie_decode(x, 800e3, alpha),
                               std::string(name) + " snr " +
                                   std::to_string(snr_db) + " scale " +
                                   std::to_string(scale));
          }
        }
      }
    }
  }

  // Degenerate inputs: too short, constant, all zero (either sign),
  // negative, non-finite, and every length's n % 4 tail.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, std::vector<double>>> odd = {
      {"empty", {}},
      {"seven", {1, 0, 1, 0, 1, 0, 1}},
      {"constant", std::vector<double>(64, 0.7)},
      {"zero", std::vector<double>(64, 0.0)},
      {"negative zero", std::vector<double>(64, -0.0)},
      {"negative", std::vector<double>(64, -1.0)},
  };
  std::vector<double> signed_zeros(37, 0.0);
  for (std::size_t i = 0; i < signed_zeros.size(); i += 3) {
    signed_zeros[i] = -0.0;
  }
  odd.emplace_back("signed zeros", signed_zeros);
  const std::vector<double>& query = clean[0].second;
  std::vector<double> negated = query;
  for (auto& v : negated) v = -v;
  odd.emplace_back("negated query", negated);
  for (const std::size_t at : {std::size_t{0}, std::size_t{5}, query.size() / 2,
                               query.size() - 1}) {
    for (const double bad : {nan, inf, -inf}) {
      std::vector<double> x = query;
      x[at] = bad;
      odd.emplace_back("non-finite at " + std::to_string(at), x);
    }
  }
  for (std::size_t n = 0; n <= 40; ++n) {
    odd.emplace_back("prefix " + std::to_string(n),
                     std::vector<double>(query.begin(), query.begin() + n));
    std::vector<double> tail(query.end() - static_cast<std::ptrdiff_t>(n),
                             query.end());
    odd.emplace_back("suffix " + std::to_string(n), tail);
  }
  for (const auto& [name, x] : odd) {
    expect_same_decode(pie_decode(x, 800e3), naive::pie_decode(x, 800e3),
                       name);
  }
}

TEST(Commands, QueryRoundTrip) {
  QueryCommand q;
  q.q = 5;
  q.session = Session::kS2;
  q.trext = true;
  const auto bits = q.encode();
  EXPECT_EQ(bits.size(), 22u);
  const auto parsed = QueryCommand::parse(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->q, 5);
  EXPECT_EQ(parsed->session, Session::kS2);
  EXPECT_TRUE(parsed->trext);
}

TEST(Commands, QueryRejectsBadCrc) {
  auto bits = QueryCommand{}.encode();
  bits[10] = !bits[10];
  EXPECT_FALSE(QueryCommand::parse(bits).has_value());
}

TEST(Commands, AckRoundTrip) {
  const AckCommand ack{.rn16 = 0xBEEF};
  const auto bits = ack.encode();
  EXPECT_EQ(bits.size(), 18u);
  const auto parsed = AckCommand::parse(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rn16, 0xBEEF);
}

TEST(Commands, QueryRepRoundTrip) {
  const QueryRepCommand rep{.session = Session::kS3};
  const auto parsed = QueryRepCommand::parse(rep.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->session, Session::kS3);
}

TEST(Commands, SelectRoundTrip) {
  SelectCommand sel;
  sel.pointer = 32;
  sel.mask = {true, false, true, true, false, false, true, true};
  const auto bits = sel.encode();
  const auto parsed = SelectCommand::parse(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pointer, 32);
  EXPECT_EQ(parsed->mask, sel.mask);
}

TEST(Commands, Classify) {
  EXPECT_EQ(classify(QueryCommand{}.encode()), CommandKind::kQuery);
  EXPECT_EQ(classify(AckCommand{}.encode()), CommandKind::kAck);
  EXPECT_EQ(classify(QueryRepCommand{}.encode()), CommandKind::kQueryRep);
  EXPECT_EQ(classify(SelectCommand{}.encode()), CommandKind::kSelect);
}

TEST(TagSm, FullInventoryExchange) {
  Bits epc;
  append_bits(epc, 0xDEADBEEF, 32);
  append_bits(epc, 0xCAFEF00D, 32);
  append_bits(epc, 0x12345678, 32);
  TagStateMachine tag(epc, 7);
  EXPECT_EQ(tag.state(), TagState::kOff);

  // Commands before power-up are ignored.
  EXPECT_FALSE(tag.on_command(QueryCommand{}.encode()).has_value());

  tag.power_up();
  EXPECT_EQ(tag.state(), TagState::kReady);

  // Q=0 -> slot 0 -> immediate RN16.
  const auto rn16_reply = tag.on_command(QueryCommand{.q = 0}.encode());
  ASSERT_TRUE(rn16_reply.has_value());
  EXPECT_EQ(rn16_reply->size(), 16u);
  EXPECT_EQ(tag.state(), TagState::kReply);

  // ACK with the right RN16 -> EPC frame (PC + EPC + CRC16).
  const auto epc_reply =
      tag.on_command(AckCommand{.rn16 = tag.last_rn16()}.encode());
  ASSERT_TRUE(epc_reply.has_value());
  EXPECT_EQ(tag.state(), TagState::kAcknowledged);
  EXPECT_EQ(epc_reply->size(), 16u + 96u + 16u);
  EXPECT_TRUE(check_crc16(*epc_reply));
}

TEST(TagSm, WrongRn16SendsTagBackToArbitrate) {
  Rng rng(8);
  TagStateMachine tag(random_bits(96, rng), 9);
  tag.power_up();
  tag.on_command(QueryCommand{.q = 0}.encode());
  const auto wrong = static_cast<std::uint16_t>(tag.last_rn16() ^ 0x1);
  EXPECT_FALSE(tag.on_command(AckCommand{.rn16 = wrong}.encode()).has_value());
  EXPECT_EQ(tag.state(), TagState::kArbitrate);
}

TEST(TagSm, SlottingWithQueryRep) {
  // With Q=4 a tag usually draws a nonzero slot and counts down via
  // QueryRep until it replies.
  Bits epc = {true, false, true};
  TagStateMachine tag(epc, 12345);
  tag.power_up();
  auto reply = tag.on_command(QueryCommand{.q = 4}.encode());
  int reps = 0;
  while (!reply.has_value() && reps < 20) {
    reply = tag.on_command(QueryRepCommand{}.encode());
    ++reps;
  }
  EXPECT_TRUE(reply.has_value());
  EXPECT_LE(reps, 16);
}

TEST(TagSm, PowerLossResetsEverything) {
  TagStateMachine tag({true, false}, 3);
  tag.power_up();
  tag.on_command(QueryCommand{.q = 0}.encode());
  tag.power_loss();
  EXPECT_EQ(tag.state(), TagState::kOff);
  EXPECT_EQ(tag.last_rn16(), 0);
}

TEST(TagSm, SelectGatesQuery) {
  Bits epc;
  append_bits(epc, 0xAAAA5555, 32);
  append_bits(epc, 0x0, 32);
  append_bits(epc, 0x0, 32);
  TagStateMachine tag(epc, 21);
  tag.power_up();

  // Select with a mask matching the EPC start asserts SL.
  SelectCommand sel;
  sel.pointer = 0;
  sel.mask = {true, false, true, false};  // 0xA...
  tag.on_command(sel.encode());
  EXPECT_TRUE(tag.selected());

  // Query with sel=3 (SL asserted) gets a reply.
  const auto reply = tag.on_command(QueryCommand{.sel = 3, .q = 0}.encode());
  EXPECT_TRUE(reply.has_value());

  // Non-matching select deasserts SL; sel=3 query now ignored.
  sel.mask = {false, false, false, false};
  tag.on_command(sel.encode());
  EXPECT_FALSE(tag.selected());
  EXPECT_FALSE(
      tag.on_command(QueryCommand{.sel = 3, .q = 0}.encode()).has_value());
}

TEST(TagSm, Rn16FrameAndEpcFrame) {
  EXPECT_EQ(TagStateMachine::rn16_frame(0xFFFF).size(), 16u);
  Rng rng(77);
  Bits epc = random_bits(96, rng);
  TagStateMachine tag(epc, 5);
  const auto frame = tag.epc_frame();
  // PC(16) + EPC(96) + CRC16(16).
  ASSERT_EQ(frame.size(), 128u);
  EXPECT_TRUE(check_crc16(frame));
  // EPC payload embedded verbatim.
  for (std::size_t i = 0; i < 96; ++i) EXPECT_EQ(frame[16 + i], epc[i]);
}

}  // namespace
}  // namespace ivnet::gen2
