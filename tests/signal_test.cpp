// Tests for ivnet/signal: waveform synthesis, envelopes, correlation,
// filtering, noise, the deterministic Gaussian sampler, and single-bin DFT.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "goertzel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/signal/fir.hpp"
#include "ivnet/signal/gauss.hpp"
#include "ivnet/signal/noise.hpp"
#include "ivnet/signal/waveform.hpp"
#include "scoped_isa.hpp"

namespace ivnet {
namespace {

TEST(Waveform, ToneHasUnitMagnitudeAndCorrectPhaseRate) {
  const double fs = 10e3;
  const auto tone = make_tone(100.0, 0.3, 1000, fs);
  ASSERT_EQ(tone.size(), 1000u);
  for (std::size_t i = 0; i < tone.size(); i += 97) {
    EXPECT_NEAR(std::abs(tone.samples[i]), 1.0, 1e-9);
    const double expect = wrap_phase(0.3 + kTwoPi * 100.0 * tone.time_of(i));
    EXPECT_NEAR(wrap_phase(std::arg(tone.samples[i])), expect, 1e-6);
  }
}

TEST(Waveform, ToneLongRunStaysNormalized) {
  const auto tone = make_tone(137.0, 0.0, 200000, 20e3);
  EXPECT_NEAR(std::abs(tone.samples.back()), 1.0, 1e-9);
}

TEST(Waveform, MultitonePeaksAtNWithZeroPhases) {
  const std::vector<double> offsets = {0, 7, 20, 49, 68};
  const std::vector<double> phases(5, 0.0);
  const auto wave = make_multitone(offsets, phases, {}, 2000, 2000.0);
  // At t = 0 all tones align: |sum| = 5.
  EXPECT_NEAR(std::abs(wave.samples[0]), 5.0, 1e-9);
  EXPECT_NEAR(peak_amplitude(wave), 5.0, 1e-6);
}

TEST(Waveform, MultitoneZeroAmplitudeToneStaysFinite) {
  // Regression: renormalizing a zero-amplitude tone's phasor divided 0 by
  // |0| at sample 4095 and turned every later sample NaN. The amplitude now
  // scales the rotator's output instead of living inside it.
  const std::vector<double> offsets = {137.0, 911.0};
  const std::vector<double> phases = {0.3, 1.1};
  const std::vector<double> amps = {1.0, 0.0};
  const auto wave = make_multitone(offsets, phases, amps, 8192, 20e3);
  const auto first = make_tone(137.0, 0.3, 8192, 20e3);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    ASSERT_TRUE(std::isfinite(wave.samples[i].real()) &&
                std::isfinite(wave.samples[i].imag()))
        << "sample " << i;
    ASSERT_LT(std::abs(wave.samples[i] - first.samples[i]), 1e-12)
        << "sample " << i;
  }
}

TEST(Waveform, AccumulateAndScale) {
  Waveform acc;
  const auto tone = make_tone(10.0, 0.0, 100, 1000.0);
  accumulate(acc, tone, {2.0, 0.0});
  accumulate(acc, tone, {1.0, 0.0});
  EXPECT_NEAR(std::abs(acc.samples[0]), 3.0, 1e-12);
  scale(acc, {0.5, 0.0});
  EXPECT_NEAR(std::abs(acc.samples[0]), 1.5, 1e-12);
}

TEST(Waveform, ModulateEnvelopeZeroesWhereEnvelopeZero) {
  const std::vector<double> env = {1.0, 0.0, 0.5, 1.0};
  const auto wave = modulate_envelope(env, 50.0, 0.0, 1000.0);
  EXPECT_NEAR(std::abs(wave.samples[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(wave.samples[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(wave.samples[2]), 0.5, 1e-12);
}

TEST(Waveform, EnergyAndMeanPower) {
  const auto tone = make_tone(100.0, 0.0, 1000, 1000.0);
  EXPECT_NEAR(mean_power(tone), 1.0, 1e-9);
  EXPECT_NEAR(energy(tone), 1.0, 1e-9);  // 1 s of unit power
}

TEST(Waveform, PeakIndexFindsMax) {
  Waveform wave;
  wave.sample_rate_hz = 1.0;
  wave.samples = {cplx{0.1, 0}, cplx{0, 2.0}, cplx{0.5, 0.5}};
  EXPECT_EQ(peak_index(wave), 1u);
  EXPECT_NEAR(peak_amplitude(wave), 2.0, 1e-12);
}

TEST(Envelope, MagnitudeAndFluctuation) {
  Waveform wave;
  wave.sample_rate_hz = 1.0;
  wave.samples = {cplx{1.0, 0}, cplx{0, 0.5}, cplx{0.8, 0.6}};
  const auto env = envelope(wave);
  EXPECT_NEAR(env[0], 1.0, 1e-12);
  EXPECT_NEAR(env[1], 0.5, 1e-12);
  EXPECT_NEAR(env[2], 1.0, 1e-12);
  EXPECT_NEAR(fluctuation(env), 0.5, 1e-12);
}

TEST(Envelope, MovingAverageSmooths) {
  const std::vector<double> x = {0, 1, 0, 1, 0, 1, 0, 1};
  const auto smooth = moving_average(x, 4);
  for (std::size_t i = 4; i < smooth.size(); ++i) {
    EXPECT_NEAR(smooth[i], 0.5, 1e-12);
  }
}

TEST(Envelope, RcLowpassConvergesToDc) {
  const std::vector<double> x(1000, 2.0);
  const auto y = rc_lowpass(x, 1e-3, 100e3);
  EXPECT_NEAR(y.back(), 2.0, 1e-3);
}

TEST(Envelope, SliceAndMidpoint) {
  const std::vector<double> env = {1.0, 0.1, 0.9, 0.2};
  const double th = midpoint_threshold(env);
  EXPECT_NEAR(th, 0.55, 1e-12);
  const auto bits = slice(env, th);
  EXPECT_TRUE(bits[0]);
  EXPECT_FALSE(bits[1]);
  EXPECT_TRUE(bits[2]);
  EXPECT_FALSE(bits[3]);
}

TEST(Correlate, IdenticalSignalsGiveOne) {
  const std::vector<double> a = {1, -1, 1, 1, -1, 0.5};
  EXPECT_NEAR(normalized_correlation(a, a), 1.0, 1e-12);
}

TEST(Correlate, InvertedSignalsGiveMinusOne) {
  const std::vector<double> a = {1, -1, 1, 1, -1, 0.5};
  std::vector<double> b = a;
  for (auto& x : b) x = -x;
  EXPECT_NEAR(normalized_correlation(a, b), -1.0, 1e-12);
}

TEST(Correlate, FindsShiftedNeedle) {
  std::vector<double> haystack(200, 0.0);
  const std::vector<double> needle = {1, -1, 1, -1, 1, 1, -1, -1};
  for (std::size_t i = 0; i < needle.size(); ++i) haystack[57 + i] = needle[i];
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, 57u);
  EXPECT_GT(peak.value, 0.99);
}

TEST(Correlate, ComplexCorrelationPhaseInvariant) {
  const auto a = make_tone(100.0, 0.0, 256, 10e3);
  const auto b = make_tone(100.0, 1.2, 256, 10e3);  // same tone, phase shift
  EXPECT_NEAR(complex_correlation(a.samples, b.samples), 1.0, 1e-9);
}

TEST(Correlate, DegenerateInputsReturnZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> shorter = {1.0, 2.0};
  const std::vector<double> constant = {4.0, 4.0, 4.0};
  const std::vector<double> empty;
  const std::vector<double> single = {7.0};
  // Mismatched lengths, empty spans, zero variance (constant / length-1):
  // all documented to return 0 rather than NaN.
  EXPECT_EQ(normalized_correlation(a, shorter), 0.0);
  EXPECT_EQ(normalized_correlation(empty, empty), 0.0);
  EXPECT_EQ(normalized_correlation(a, constant), 0.0);
  EXPECT_EQ(normalized_correlation(constant, constant), 0.0);
  EXPECT_EQ(normalized_correlation(single, single), 0.0);
  // Searching with a degenerate needle is equally quiet.
  EXPECT_EQ(best_correlation(a, empty).value, 0.0);
  EXPECT_EQ(best_correlation(shorter, a).value, 0.0);
}

TEST(Correlate, FindsFm0PreambleAtFinalValidOffset) {
  // The tag's 12-half-bit FM0 preamble ("110100100011") planted at the LAST
  // offset the sliding search can reach: offset = haystack - needle. An
  // off-by-one in the search bound would miss it entirely.
  const double blf_hz = 100e3;
  const double fs = 800e3;
  const auto needle = gen2::fm0_preamble_template(blf_hz, fs);
  ASSERT_FALSE(needle.empty());
  std::vector<double> haystack(needle.size() + 333, 0.0);
  const std::size_t final_offset = haystack.size() - needle.size();
  for (std::size_t i = 0; i < needle.size(); ++i) {
    haystack[final_offset + i] = needle[i];
  }
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, final_offset);
  EXPECT_GT(peak.value, 0.99);
}

TEST(Fir, LowpassPassesDcRejectsHighFrequency) {
  const auto taps = design_lowpass(500.0, 10e3, 63);
  DspWorkspace ws;
  Waveform dc, hf;
  fir_filter(make_tone(0.0, 0.0, 512, 10e3), taps, dc, ws);
  fir_filter(make_tone(3000.0, 0.0, 512, 10e3), taps, hf, ws);
  EXPECT_NEAR(std::abs(dc.samples[256]), 1.0, 0.01);
  EXPECT_LT(std::abs(hf.samples[256]), 0.02);
}

TEST(Fir, DesignLowpassRejectsInvalidArgumentsInReleaseToo) {
  // These used to be assert-only and vanished under NDEBUG, silently
  // designing aliased garbage taps. They now throw unconditionally — this
  // test runs in the Release/ASan/TSan configs as well as Debug.
  EXPECT_THROW(design_lowpass(5000.0, 10e3, 63), std::invalid_argument);
  EXPECT_THROW(design_lowpass(6000.0, 10e3, 63), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.0, 10e3, 63), std::invalid_argument);
  EXPECT_THROW(design_lowpass(-100.0, 10e3, 63), std::invalid_argument);
  EXPECT_THROW(design_lowpass(500.0, 10e3, 0), std::invalid_argument);
  EXPECT_THROW(design_lowpass(500.0, 0.0, 63), std::invalid_argument);
  EXPECT_NO_THROW(design_lowpass(4999.0, 10e3, 1));
}

TEST(Noise, AwgnPowerMatchesRequest) {
  Rng rng(3);
  Waveform wave;
  wave.sample_rate_hz = 1e6;
  wave.samples.assign(200000, cplx{0.0, 0.0});
  add_awgn(wave, 0.25, rng);
  EXPECT_NEAR(mean_power(wave), 0.25, 0.01);
}

TEST(Noise, ThermalFloorMagnitude) {
  // kTB at 290 K over 1 Hz is -174 dBm; over 1 MHz with NF 6 dB: -108 dBm.
  const double p = thermal_noise_power(1e6, 6.0);
  EXPECT_NEAR(watts_to_dbm(p), -108.0, 0.3);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Gauss, LevelsIncludeBaselineAndReportTheChoice) {
  const auto levels = detail::isa_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), IsaLevel::kBaseline);
  for (const auto isa : levels) {
    ScopedIsaLevel level(isa);
    EXPECT_EQ(isa_level(), isa);
    EXPECT_EQ(signal::gauss_simd_enabled(), isa != IsaLevel::kBaseline);
  }
}

TEST(Gauss, FillsBitwiseMatchPerDrawReference) {
  // The definition every instruction-set level must reproduce byte for
  // byte: one raw draw per sample, fused into the source sample, leaving
  // the generator where n calls of rng() would. The sizes straddle the
  // 4-sample packing and the 256-draw tile.
  for (const auto isa : detail::isa_levels()) {
    SCOPED_TRACE(isa_name(isa));
    ScopedIsaLevel level(isa);
    for (const std::size_t n :
         {0, 1, 3, 4, 5, 255, 256, 257, 259, 1023, 4096, 65537}) {
      for (const std::uint64_t seed : {1ull, 99ull, 0x9e3779b97f4a7c15ull}) {
        for (const double sigma : {0.0, 1e-3, 1.0, 3.5}) {
          std::vector<double> src(n);
          Rng source(seed ^ 0x5a5aull);
          for (double& v : src) v = source.uniform(-2.0, 2.0);
          Rng ref(seed);
          std::vector<double> expected(n);
          for (std::size_t i = 0; i < n; ++i) {
            expected[i] =
                std::fma(sigma, signal::normal_from_bits(ref()), src[i]);
          }

          Rng in_place_rng(seed);
          std::vector<double> in_place = src;
          signal::axpy_awgn(in_place_rng, sigma, in_place);
          Rng aliased_rng(seed);
          std::vector<double> aliased = src;
          signal::axpy_awgn_onto(aliased_rng, sigma, aliased.data(), aliased);
          Rng separate_rng(seed);
          std::vector<double> separate(n);
          signal::axpy_awgn_onto(separate_rng, sigma, src.data(), separate);

          EXPECT_TRUE(same_bytes(in_place, expected))
              << "in place n " << n << " seed " << seed << " sigma " << sigma;
          EXPECT_TRUE(same_bytes(aliased, expected))
              << "aliased n " << n << " seed " << seed << " sigma " << sigma;
          EXPECT_TRUE(same_bytes(separate, expected))
              << "separate n " << n << " seed " << seed << " sigma " << sigma;
          for (const Rng* rng : {&in_place_rng, &aliased_rng, &separate_rng}) {
            EXPECT_EQ(rng->raw_state(), ref.raw_state())
                << "n " << n << " seed " << seed << " sigma " << sigma;
          }
        }
      }
    }
  }
}

/// One sampler call from generator `start`: in place over a copy of `src`,
/// or onto a separate buffer. Returns the output and the end state.
std::pair<std::vector<double>, Rng> sample(const Rng& start, double sigma,
                                           const std::vector<double>& src,
                                           bool in_place) {
  Rng rng = start;
  std::vector<double> out = src;
  if (in_place) {
    signal::axpy_awgn(rng, sigma, out);
  } else {
    signal::axpy_awgn_onto(rng, sigma, src.data(), out);
  }
  return {std::move(out), rng};
}

TEST(Gauss, TapeReplaysBitwiseAtAnySigma) {
  // A tape hit must write exactly what a fresh draw writes, at whatever
  // sigma, and leave the generator where the draw would: recorded at one
  // sigma, replayed at another, against the tape-free result.
  for (const auto isa : detail::isa_levels()) {
    SCOPED_TRACE(isa_name(isa));
    ScopedIsaLevel level(isa);
    for (const std::size_t n : {0, 1, 3, 4, 255, 256, 257, 4097}) {
      for (const bool in_place : {true, false}) {
        std::vector<double> src(n);
        Rng source(n + 7);
        for (double& v : src) v = source.uniform(-2.0, 2.0);
        const Rng start = Rng::stream(42, n);
        const auto fresh_record = sample(start, 0.5, src, in_place);
        const auto fresh_replay = sample(start, 2.0, src, in_place);

        signal::NoiseTapeScope tape;
        const auto recorded = sample(start, 0.5, src, in_place);
        const std::size_t entries = signal::detail::noise_tape_size();
        const auto replayed = sample(start, 2.0, src, in_place);
        EXPECT_EQ(signal::detail::noise_tape_size(), entries)
            << "n " << n << ": the second call must replay, not record";
        EXPECT_TRUE(same_bytes(recorded.first, fresh_record.first))
            << "n " << n << " in_place " << in_place;
        EXPECT_TRUE(same_bytes(replayed.first, fresh_replay.first))
            << "n " << n << " in_place " << in_place;
        EXPECT_EQ(recorded.second.raw_state(), fresh_record.second.raw_state())
            << "n " << n;
        EXPECT_EQ(replayed.second.raw_state(), fresh_replay.second.raw_state())
            << "n " << n;
      }
    }
  }
}

TEST(Gauss, TapeKeysOnFullStateAndLength) {
  const std::vector<double> src(300, 0.125);
  const Rng a = Rng::stream(7, 0);
  const Rng b = Rng::stream(7, 1);
  signal::NoiseTapeScope tape;
  (void)sample(a, 1.0, src, false);
  EXPECT_EQ(signal::detail::noise_tape_size(), 1u);

  // Same state, another length: a fresh draw, with the state that length
  // reaches.
  const std::vector<double> shorter(257, 0.125);
  const auto got_len = sample(a, 1.5, shorter, false);
  EXPECT_EQ(signal::detail::noise_tape_size(), 2u);
  Rng ref_len = a;
  std::vector<double> want_len(257);
  for (std::size_t i = 0; i < want_len.size(); ++i) {
    want_len[i] = std::fma(1.5, signal::normal_from_bits(ref_len()), 0.125);
  }
  EXPECT_TRUE(same_bytes(got_len.first, want_len));
  EXPECT_EQ(got_len.second.raw_state(), ref_len.raw_state());

  // Another state, same length: a fresh draw from that state.
  const auto got_state = sample(b, 1.0, src, false);
  EXPECT_EQ(signal::detail::noise_tape_size(), 3u);
  Rng ref_state = b;
  std::vector<double> want_state(src.size());
  for (std::size_t i = 0; i < want_state.size(); ++i) {
    want_state[i] = std::fma(1.0, signal::normal_from_bits(ref_state()), 0.125);
  }
  EXPECT_TRUE(same_bytes(got_state.first, want_state));
  EXPECT_EQ(got_state.second.raw_state(), ref_state.raw_state());
}

TEST(Gauss, TapeForgetsEverythingWhenItsScopeEnds) {
  const std::vector<double> src(64, 0.0);
  EXPECT_EQ(signal::detail::noise_tape_size(), 0u);
  {
    signal::NoiseTapeScope tape;
    (void)sample(Rng(1), 1.0, src, true);
    {
      signal::NoiseTapeScope joined;  // joins the live tape
      (void)sample(Rng(2), 1.0, src, true);
    }
    EXPECT_EQ(signal::detail::noise_tape_size(), 2u)
        << "a nested scope must not clear the tape it joined";
  }
  EXPECT_EQ(signal::detail::noise_tape_size(), 0u);
  (void)sample(Rng(1), 1.0, src, true);  // no tape: nothing recorded
  EXPECT_EQ(signal::detail::noise_tape_size(), 0u);
  signal::NoiseTapeScope next;
  EXPECT_EQ(signal::detail::noise_tape_size(), 0u);
  (void)sample(Rng(1), 1.0, src, true);
  EXPECT_EQ(signal::detail::noise_tape_size(), 1u)
      << "a new scope must draw afresh, not replay the last scope's calls";
}

TEST(Gauss, LanesFillEachLaneLikeOneFill) {
  constexpr std::size_t kLanes = 5;
  const std::size_t n = 259;
  const std::vector<double> src(n, 0.25);
  std::vector<Rng> rngs;
  for (std::size_t k = 0; k < kLanes; ++k) rngs.push_back(Rng::stream(99, k));
  const std::vector<Rng> start = rngs;
  std::vector<std::vector<double>> out(kLanes, std::vector<double>(n));
  Rng* rng_ptrs[kLanes];
  const double* srcs[kLanes];
  double* dsts[kLanes];
  double sigmas[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    rng_ptrs[k] = &rngs[k];
    srcs[k] = src.data();
    dsts[k] = out[k].data();
    sigmas[k] = 0.5 + static_cast<double>(k);
  }
  signal::axpy_awgn_lanes_onto(kLanes, rng_ptrs, sigmas, srcs, dsts, n);
  for (std::size_t k = 0; k < kLanes; ++k) {
    Rng one = start[k];
    std::vector<double> expected(n);
    signal::axpy_awgn_onto(one, sigmas[k], src.data(), expected);
    EXPECT_TRUE(same_bytes(out[k], expected)) << "lane " << k;
    EXPECT_EQ(rngs[k].raw_state(), one.raw_state()) << "lane " << k;
  }
}

TEST(Gauss, SamplerStatistics) {
  Rng rng(4242);
  const std::size_t n = 200000;
  std::vector<double> x(n, 0.0);
  signal::axpy_awgn(rng, 1.0, x);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t far_tail = 0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
    if (v > 4.0 || v < -4.0) ++far_tail;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  // P(|z| > 4) ~ 6.3e-5: the inverse-CDF sampler actually reaches the far
  // tail (Box-Muller-style clamping or a broken tail branch would not).
  EXPECT_GT(far_tail, 0u);
  EXPECT_LT(far_tail, 60u);
}

TEST(Goertzel, PicksToneAmplitudeAndRejectsOthers) {
  auto wave = make_tone(1234.0, 0.7, 8192, 100e3);
  scale(wave, {0.5, 0.0});
  EXPECT_NEAR(std::abs(goertzel(wave, 1234.0)), 0.5, 1e-3);
  EXPECT_LT(std::abs(goertzel(wave, 4321.0)), 0.01);
}

// Property sweep: multitone peak amplitude never exceeds the tone count.
class MultitonePeakBound : public ::testing::TestWithParam<int> {};

TEST_P(MultitonePeakBound, PeakAtMostN) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 77 + 1);
  std::vector<double> offsets(n), phases(n);
  for (int i = 0; i < n; ++i) {
    offsets[i] = static_cast<double>(rng.uniform_int(0, 200));
    phases[i] = rng.phase();
  }
  const auto wave = make_multitone(offsets, phases, {}, 4096, 4096.0);
  EXPECT_LE(peak_amplitude(wave), static_cast<double>(n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(N, MultitonePeakBound,
                         ::testing::Values(1, 2, 3, 5, 8, 10, 16));

}  // namespace
}  // namespace ivnet
