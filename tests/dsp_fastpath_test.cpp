// Pins the DSP fast path (three-region FIR, polyphase decimate,
// CorrelationNeedle, PhasorRotator and its oscillator sites, DspWorkspace)
// against the naive oracles in naive_dsp.hpp, and the fused
// RadioArray::transmit_through against receive(transmit()).
//
// The bitwise-equivalence policy (docs/ARCHITECTURE.md, "DSP fast path"):
// a kernel rewrite may reorganize WHICH outputs are computed and how loops
// are tiled, but each output must be produced by the identical sequence of
// floating-point operations — so these tests compare with memcmp-strict
// equality, not tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "goertzel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/rf/channel.hpp"
#include "ivnet/sdr/pa.hpp"
#include "ivnet/sdr/radio.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/fir.hpp"
#include "ivnet/signal/phasor.hpp"
#include "ivnet/signal/resampler.hpp"
#include "naive_dsp.hpp"

namespace ivnet {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

Waveform random_wave(std::size_t n, std::uint64_t seed, double fs = 800e3) {
  Rng rng(seed);
  Waveform w;
  w.sample_rate_hz = fs;
  w.samples.resize(n);
  for (auto& s : w.samples) {
    s = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  return w;
}

void expect_bitwise_eq(const Waveform& got, const Waveform& want,
                       const char* what) {
  ASSERT_EQ(got.samples.size(), want.samples.size()) << what;
  EXPECT_DOUBLE_EQ(got.sample_rate_hz, want.sample_rate_hz) << what;
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.samples[i], &want.samples[i], sizeof(cplx)), 0)
        << what << ": sample " << i << " got " << got.samples[i] << " want "
        << want.samples[i];
  }
}

/// fir_filter through `ws`, returning the output.
Waveform filter(const Waveform& w, std::span<const double> taps,
                DspWorkspace& ws) {
  Waveform out;
  fir_filter(w, taps, out, ws);
  return out;
}

// --- Three-region FIR vs the bounds-checked oracle. -----------------------

TEST(FirFastPath, ComplexBitwiseMatchesNaive) {
  DspWorkspace ws;
  const auto taps = design_lowpass(40e3, 800e3, 101);
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{257},
                        std::size_t{4096}}) {
    const auto w = random_wave(n, 11 + n);
    expect_bitwise_eq(filter(w, taps, ws), naive::fir_filter(w, taps),
                      "complex fir");
  }
  const auto short_taps = design_lowpass(40e3, 800e3, 31);
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{1001}}) {
    const auto w = random_wave(n, 7 + n);
    expect_bitwise_eq(filter(w, short_taps, ws),
                      naive::fir_filter(w, short_taps), "31-tap fir");
  }
}

TEST(FirFastPath, EvenTapCountBitwiseMatchesNaive) {
  // fir_filter accepts arbitrary (including even-length, asymmetric) tap
  // spans even though design_lowpass only emits odd counts.
  const std::vector<double> taps = {0.31, -0.2, 0.52, 0.11, -0.07, 0.4};
  DspWorkspace ws;
  for (std::size_t n : {std::size_t{3}, std::size_t{6}, std::size_t{257}}) {
    const auto w = random_wave(n, 100 + n);
    expect_bitwise_eq(filter(w, taps, ws), naive::fir_filter(w, taps),
                      "even-tap fir");
  }
}

TEST(FirFastPath, InputShorterThanFilterBitwiseMatchesNaive) {
  const auto taps = design_lowpass(40e3, 800e3, 101);
  const auto w = random_wave(17, 3);
  DspWorkspace ws;
  expect_bitwise_eq(filter(w, taps, ws), naive::fir_filter(w, taps),
                    "short-input fir");
}

TEST(FirFastPath, ImpulseResponseEqualsTaps) {
  // "Same" alignment: a centered impulse reproduces the taps in order,
  // shifted by the group delay, on each lane.
  const std::vector<double> taps = {0.1, -0.5, 1.0, 0.25, -0.125};
  Waveform x;
  x.sample_rate_hz = 800e3;
  x.samples.assign(64, cplx{0.0, 0.0});
  const std::size_t pos = 32;
  x.samples[pos] = cplx{1.0, -2.0};
  DspWorkspace ws;
  const auto y = filter(x, taps, ws);
  const std::size_t delay = (taps.size() - 1) / 2;
  for (std::size_t t = 0; t < taps.size(); ++t) {
    EXPECT_DOUBLE_EQ(y.samples[pos - delay + t].real(), taps[t]) << "tap " << t;
    EXPECT_DOUBLE_EQ(y.samples[pos - delay + t].imag(), -2.0 * taps[t])
        << "tap " << t;
  }
}

TEST(FirFastPath, Linearity) {
  const auto taps = design_lowpass(60e3, 800e3, 41);
  const auto x = random_wave(300, 21);
  const auto y = random_wave(300, 22);
  Waveform mix = x;
  for (std::size_t i = 0; i < mix.samples.size(); ++i) {
    mix.samples[i] = 2.0 * x.samples[i] - 0.5 * y.samples[i];
  }
  DspWorkspace ws;
  const auto fx = filter(x, taps, ws);
  const auto fy = filter(y, taps, ws);
  const auto fmix = filter(mix, taps, ws);
  for (std::size_t i = 0; i < mix.samples.size(); ++i) {
    EXPECT_LT(std::abs(fmix.samples[i] -
                       (2.0 * fx.samples[i] - 0.5 * fy.samples[i])),
              1e-12);
  }
}

// --- Polyphase decimation vs filter-everything-then-discard. --------------

TEST(DecimateFastPath, ComplexBitwiseMatchesNaive) {
  DspWorkspace ws;
  for (std::size_t factor : {1u, 2u, 3u, 8u, 16u}) {
    const auto w = random_wave(3000, 40 + factor);
    expect_bitwise_eq(decimate(w, factor, ws), naive::decimate(w, factor),
                      "complex decimate");
  }
}

TEST(DecimateFastPath, InputShorterThanFilterBitwiseMatchesNaive) {
  // factor 16 designs 34*16+1 = 545 taps; a 100-sample input is all edges.
  const auto w = random_wave(100, 77);
  DspWorkspace ws;
  expect_bitwise_eq(decimate(w, 16, ws), naive::decimate(w, 16),
                    "short-input decimate");
}

// --- CorrelationNeedle vs per-offset normalized_correlation. --------------

TEST(CorrelateFastPath, SlidingMatchesPerOffsetOracle) {
  const auto haystack = random_signal(400, 5);
  const auto needle = random_signal(37, 6);
  const auto fast = sliding_correlation(haystack, needle);
  ASSERT_EQ(fast.size(), haystack.size() - needle.size() + 1);
  for (std::size_t off = 0; off < fast.size(); ++off) {
    const double want = normalized_correlation(
        std::span(haystack).subspan(off, needle.size()), needle);
    ASSERT_EQ(std::memcmp(&fast[off], &want, sizeof(double)), 0)
        << "offset " << off;
  }
}

TEST(CorrelateFastPath, NeedleHandlesDegenerateWindows) {
  const std::vector<double> constant(8, 3.0);
  const auto needle = random_signal(8, 9);
  const CorrelationNeedle cached(needle);
  EXPECT_EQ(cached.correlate(constant), 0.0);  // zero-variance window
  EXPECT_EQ(cached.correlate(std::span<const double>{}), 0.0);
  const CorrelationNeedle flat(constant);
  EXPECT_EQ(flat.correlate(needle), 0.0);  // zero-variance needle
}

TEST(CorrelateFastPath, BestCorrelationFindsEmbeddedNeedle) {
  const auto needle = random_signal(25, 13);
  std::vector<double> haystack = random_signal(300, 14);
  for (std::size_t i = 0; i < needle.size(); ++i) {
    haystack[120 + i] = needle[i];
  }
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, 120u);
  EXPECT_NEAR(peak.value, 1.0, 1e-12);
}

// --- PhasorRotator drift regression (satellite). --------------------------

TEST(Phasor, RenormBoundsDriftAtTwoToTwentySteps) {
  // 2^20 advances of a 0.37 rad step. The re-anchored phasor must sit within 1e-9 of the exact value; the
  // bare product accumulates ~steps * eps and is orders of magnitude off
  // the unit circle by then.
  const double dphi = 0.37;
  constexpr std::size_t kSteps = 1u << 20;
  PhasorRotator rot(0.0, dphi);
  cplx bare{1.0, 0.0};
  const cplx step = std::polar(1.0, dphi);
  for (std::size_t i = 0; i < kSteps; ++i) {
    rot.advance();
    bare *= step;
  }
  const cplx exact = std::polar(1.0, dphi * static_cast<double>(kSteps));
  EXPECT_LT(std::abs(rot.value() - exact), 1e-9);
  EXPECT_NEAR(std::abs(rot.value()), 1.0, 1e-11);
  // The regression half: renorm must beat the bare product, which this
  // far out has drifted past the anchored error bound.
  EXPECT_LT(std::abs(rot.value() - exact), std::abs(bare - exact));

  // The same bound at each oscillator site built on the rotator, and at the
  // tests' goertzel, at the same 0.37 rad/sample: sample 2^20 (a re-anchor)
  // and sample 2^20 - 1 (4095 steps into the last unanchored run).
  const double fs = 800e3;
  const double f = dphi * fs / kTwoPi;
  const double step_rad = kTwoPi * f / fs;
  const std::size_t n = kSteps + 1;
  const auto expect_phase = [&](const char* site, const auto& sample_at,
                                double phase0, double rad_per_sample) {
    for (const std::size_t k : {kSteps - 1, kSteps}) {
      const cplx want = std::polar(
          1.0, phase0 + rad_per_sample * static_cast<double>(k));
      EXPECT_LT(std::abs(std::arg(sample_at(k) * std::conj(want))), 1e-9)
          << site << " at sample " << k;
    }
  };
  const Waveform tone = make_tone(f, 0.4, n, fs);
  expect_phase("make_tone", [&](std::size_t k) { return tone.samples[k]; },
               0.4, step_rad);
  const std::vector<double> offsets = {f}, phases = {0.4}, amps = {0.5};
  const Waveform multi = make_multitone(offsets, phases, amps, n, fs);
  expect_phase("make_multitone",
               [&](std::size_t k) { return multi.samples[k]; }, 0.4,
               step_rad);

  // An impulse at sample k makes goertzel return that sample's phasor / n.
  expect_phase("goertzel",
               [&](std::size_t k) {
                 Waveform impulse;
                 impulse.sample_rate_hz = fs;
                 impulse.samples.assign(n, cplx{0.0, 0.0});
                 impulse.samples[k] = 1.0;
                 return goertzel(impulse, f);
               },
               0.0, -step_rad);

  // Zero PPS jitter and a shared reference: no skew, actual == tuned.
  RadioArrayConfig radio;
  radio.sample_rate_hz = fs;
  radio.clocks = ClockDistribution(0.0, 0.0);
  Rng rng(3);
  RadioArray array(2, radio, rng);
  const std::vector<double> tuned = {f, -f / 3.0};
  array.tune(tuned);
  const auto waves = array.transmit(std::vector<double>(n, 1.0));
  const auto pll_phases = array.initial_phases();
  for (std::size_t i = 0; i < waves.size(); ++i) {
    expect_phase("RadioArray::transmit",
                 [&](std::size_t k) { return waves[i].samples[k]; },
                 pll_phases[i], kTwoPi * tuned[i] / fs);
  }
}

TEST(Phasor, MatchesPolarWithinRenormWindow) {
  const double phase0 = 0.9;
  const double dphi = -0.011;
  PhasorRotator rot(phase0, dphi);
  for (std::size_t k = 0; k < 3 * PhasorRotator::kRenormInterval; ++k) {
    const cplx exact = std::polar(1.0, phase0 + dphi * static_cast<double>(k));
    ASSERT_LT(std::abs(rot.value() - exact), 1e-11) << "step " << k;
    rot.advance();
  }
}

// --- Fused RadioArray::transmit_through vs receive(transmit()). ------------

/// An envelope whose levels are mostly distinct, with short runs of equal
/// levels, 0.0 and -0.0 side by side, and drive past the PA's compression
/// point.
std::vector<double> random_levels(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> env(n);
  for (std::size_t k = 0; k < n; ++k) {
    env[k] = k % 5 == 4 ? env[k - 1] : rng.uniform(0.0, 1.5);
  }
  for (std::size_t k = 10; k + 1 < n; k += 97) {
    env[k] = 0.0;
    env[k + 1] = -0.0;
  }
  return env;
}

TEST(RadioFastPath, TransmitThroughBitwiseMatchesReceiveOfTransmit) {
  // The envelopes a session plays (CW past one 4096-step carrier re-anchor,
  // PIE Query with preamble, ACK) and random-level ones, from shared and
  // free-running clocks (PPS skew and ppm error), through single-ray and
  // 3-ray channels, at array sizes up to distributed-antenna scale and at
  // phase-continuous start times. The array sizes cover every remainder of
  // N over the kernel's four-device blocks, alone (N <= 4) and after full
  // blocks; the random lengths run from empty through odd counts to ends
  // on both sides of the 4096-step re-anchor.
  const double fs = 800e3;
  std::vector<std::pair<const char*, std::vector<double>>> envelopes = {
      {"cw", std::vector<double>(6000, 1.0)},
      {"query", gen2::pie_encode(gen2::QueryCommand{.q = 0}.encode(),
                                 gen2::PieTiming{}, fs, true)},
      {"ack", gen2::pie_encode(gen2::AckCommand{.rn16 = 0x5a3c}.encode(),
                               gen2::PieTiming{}, fs, false)},
      {"random", random_levels(3000, 5)},
  };
  for (const std::size_t len : {0, 1, 2, 3, 4095, 4096, 4097, 8193}) {
    envelopes.emplace_back("random-length", random_levels(len, 6 + len));
  }
  std::size_t cases = 0;
  std::size_t skewed = 0;
  for (const bool free_running : {false, true}) {
    for (const std::size_t rays : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 10, 32}) {
        for (const std::uint64_t seed : {1, 2}) {
          RadioArrayConfig cfg;
          cfg.sample_rate_hz = fs;
          if (free_running) cfg.clocks = ClockDistribution::free_running();
          Rng rng(1000 * seed + 10 * n + rays);
          RadioArray array(n, cfg, rng);
          std::vector<double> offsets(n);
          std::vector<double> amps(n);
          for (std::size_t i = 0; i < n; ++i) {
            offsets[i] = 7.0 * static_cast<double>(i) - 3.0;
            amps[i] = rng.uniform(0.05, 1.0);
          }
          array.tune(offsets);
          const Channel channel =
              rays == 1 ? make_blind_channel(amps, rng)
                        : make_multipath_channel(amps, rays, 50e-9, rng);
          std::vector<cplx> gains(n);
          for (std::size_t i = 0; i < n; ++i) {
            gains[i] = channel.gain(i, offsets[i]);
          }
          for (const auto& [name, env] : envelopes) {
            for (const double start : {0.0, 0.73, 1.9}) {
              const Waveform fused = array.transmit_through(env, start, gains);
              Waveform want =
                  receive(channel, array.transmit(env, start), offsets);
              // receive() over empty waveforms keeps Waveform's default
              // rate; the fused path reports the array's rate at any length.
              if (want.empty()) want.sample_rate_hz = fs;
              expect_bitwise_eq(fused, want, name);
              skewed += fused.size() > env.size();
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2592u);
  EXPECT_GT(skewed, 0u);  // the free-running arrays did pad for PPS skew
}

TEST(RadioFastPath, TransmitThroughRejectsWrongGainCount) {
  Rng rng(4);
  const RadioArray array(3, RadioArrayConfig{}, rng);
  const std::vector<double> env(16, 1.0);
  const std::vector<cplx> two(2, cplx{1.0, 0.0});
  const std::vector<cplx> four(4, cplx{1.0, 0.0});
  EXPECT_THROW(array.transmit_through(env, 0.0, two), std::invalid_argument);
  EXPECT_THROW(array.transmit_through(env, 0.0, four), std::invalid_argument);
}

TEST(RadioFastPath, TransmitBitwiseMatchesPerSamplePa) {
  // transmit() runs the PA once per run of equal levels and reads each
  // device's PPS skew as an offset into idle-padded levels. Its oracle is
  // the per-sample loop: output_amplitude(drive_amp * level) on every
  // sample, with level 0.0 outside the device's skew window.
  const double fs = 800e3;
  const double start = 0.73;
  RadioArrayConfig cfg;
  cfg.sample_rate_hz = fs;
  cfg.clocks = ClockDistribution::free_running();  // PPS skew and ppm error
  Rng rng(21);
  // The array draws its device clocks first, so a copy of its rng
  // recovers each device's start offset.
  Rng clock_rng = rng;
  RadioArray array(4, cfg, rng);
  const auto clocks = cfg.clocks.distribute(4, clock_rng);
  array.tune(std::vector<double>{0.0, 7.0, 20.0, 49.0});
  const std::vector<double> env = random_levels(2000, 22);
  const auto waves = array.transmit(env, start);

  std::vector<std::ptrdiff_t> skews;
  std::ptrdiff_t max_skew = 0;
  for (const DeviceClock& clock : clocks) {
    skews.push_back(std::llround(clock.start_offset_s * fs));
    max_skew = std::max(max_skew, std::abs(skews.back()));
  }
  ASSERT_GT(max_skew, 0);
  const std::ptrdiff_t length = std::ssize(env) + max_skew;
  const PowerAmplifier pa(cfg.pa_gain_db, cfg.pa_p1db_dbm);
  const double drive_amp = std::sqrt(dbm_to_watts(cfg.drive_dbm));
  const auto phases = array.initial_phases();
  const auto actual = array.actual_offsets_hz();
  ASSERT_EQ(waves.size(), 4u);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    Waveform want;
    want.sample_rate_hz = fs;
    PhasorRotator rot(phases[i] + kTwoPi * actual[i] * start,
                      kTwoPi * actual[i] / fs);
    for (std::ptrdiff_t n = 0; n < length; ++n) {
      const std::ptrdiff_t src = n - skews[i];
      const double level = src >= 0 && src < std::ssize(env) ? env[src] : 0.0;
      want.samples.push_back(pa.output_amplitude(drive_amp * level) *
                             rot.value());
      rot.advance();
    }
    expect_bitwise_eq(waves[i], want, "per-sample PA");
  }
}

// --- DspWorkspace recycling. ----------------------------------------------

TEST(DspWorkspace, RecyclesReleasedCapacity) {
  DspWorkspace ws;
  auto big = ws.acquire_real(100000);
  const double* storage = big.data();
  ws.release(std::move(big));
  EXPECT_EQ(ws.pooled_real(), 1u);
  // A smaller checkout reuses the parked capacity, not a fresh allocation.
  auto reused = ws.acquire_real(500);
  EXPECT_EQ(reused.data(), storage);
  EXPECT_EQ(ws.pooled_real(), 0u);
  ws.release(std::move(reused));
}

TEST(DspWorkspace, BestFitCheckoutRecyclesSmallestFit) {
  DspWorkspace ws;
  auto big = ws.acquire_real(1000);
  auto small = ws.acquire_real(100);
  const std::size_t big_cap = big.capacity();
  const std::size_t small_cap = small.capacity();
  ASSERT_GE(big_cap, 1000u);
  ws.release(std::move(big));
  ws.release(std::move(small));
  ASSERT_EQ(ws.pooled_real(), 2u);
  // A 50-sample checkout must take the SMALL parked buffer, not the big one.
  auto buf = ws.acquire_real(50);
  EXPECT_EQ(buf.capacity(), small_cap);
  // A too-big request falls back to the largest parked buffer and grows it.
  auto buf2 = ws.acquire_real(1500);
  EXPECT_GE(buf2.capacity(), 1500u);
  EXPECT_EQ(ws.pooled_real(), 0u);
  ws.release(std::move(buf));
  ws.release(std::move(buf2));
}

TEST(DspWorkspace, ScopedBufferReturnsOnScopeExit) {
  DspWorkspace ws;
  {
    ScopedBuffer a(ws, 64);
    ScopedBuffer b(ws, 32);
    EXPECT_EQ(a.size(), 64u);
    EXPECT_EQ(b.size(), 32u);
    EXPECT_EQ(ws.pooled_real(), 0u);
  }
  EXPECT_EQ(ws.pooled_real(), 2u);
}

TEST(DspWorkspace, SteadyStateFilteringDoesNotGrowPools) {
  // Repeated fir_filter and decimate calls through one workspace settle
  // onto a fixed set of buffers.
  DspWorkspace ws;
  const auto taps = design_lowpass(40e3, 800e3, 63);
  const auto in = random_wave(4096, 31);
  Waveform out;
  fir_filter(in, taps, out, ws);
  decimate(in, 4, ws);
  const std::size_t pooled_after_one = ws.pooled_real();
  EXPECT_EQ(pooled_after_one, 4u);
  for (int i = 0; i < 5; ++i) {
    fir_filter(in, taps, out, ws);
    decimate(in, 4, ws);
  }
  EXPECT_EQ(ws.pooled_real(), pooled_after_one);
}

}  // namespace
}  // namespace ivnet
