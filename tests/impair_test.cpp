// Unit tests for the impairment-injection layer (ivnet/impair): each
// primitive alone, the composed chain, the brownout gate, the recovery
// policy, and the impaired link session's determinism contract and pinned
// output bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "fnv1a.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/signal/noise.hpp"

namespace ivnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> sine(std::size_t n, double cycles_per_sample) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(kTwoPi * cycles_per_sample * static_cast<double>(i));
  }
  return x;
}

/// The generator state `draws` raw draws from Rng(seed) reach.
std::array<std::uint64_t, 4> state_after(std::uint64_t seed,
                                         std::size_t draws) {
  Rng rng(seed);
  for (std::size_t i = 0; i < draws; ++i) rng();
  return rng.raw_state();
}

/// Every field a session reports, doubles by their bits.
void add_report(Fnv1a& h, const LinkSessionReport& r) {
  h.add(r.success);
  h.add(r.powered);
  h.add(r.rn16);
  h.add_size(r.epc.size());
  for (bool b : r.epc) h.add(b);
  h.add(r.elapsed_s);
  h.add(r.last_correlation);
  h.add(r.commands_sent);
  h.add(r.recovery.retries);
  h.add(r.recovery.timeouts);
  h.add(r.recovery.backoff_total_s);
  h.add(r.recovery.failed_stage);
  h.add_size(r.recovery.q_trajectory.size());
  for (std::uint8_t q : r.recovery.q_trajectory) h.add(q);
  h.add_size(r.trace.bursts);
  h.add_size(r.trace.erased_samples);
  h.add_size(r.trace.brownout_samples);
  h.add(r.trace.browned_out);
}

/// The impairment chains the session digests cover.
struct ChainCase {
  const char* name;
  ImpairmentConfig impair;
};

std::vector<ChainCase> digest_chains() {
  ImpairmentConfig bursts;
  bursts.bursts = {.rate_hz = 150.0, .mean_duration_s = 5e-4,
                   .depth_db = 40.0};
  ImpairmentConfig brownout;
  brownout.brownout.enabled = true;
  ImpairmentConfig oscillator;
  oscillator.cfo_hz = 200.0;
  oscillator.phase_noise_linewidth_hz = 50.0;
  oscillator.clock_drift_ppm = 20.0;
  return {{"clean", ImpairmentConfig{}},
          {"bursts", bursts},
          {"brownout", brownout},
          {"cfo_pn_drift", oscillator}};
}

constexpr gen2::Miller kDigestUplinks[] = {
    gen2::Miller::kFm0, gen2::Miller::kM2, gen2::Miller::kM4,
    gen2::Miller::kM8};
constexpr double kDigestSnrsDb[] = {-5.0, 4.0, 14.0, 30.0};

/// Every chain x uplink x SNR x antennas x initial-Q point of the session
/// digest grid, in digest order (16 points per chain and uplink).
std::vector<ImpairedLinkConfig> digest_grid() {
  std::vector<ImpairedLinkConfig> grid;
  for (const ChainCase& chain : digest_chains()) {
    for (const gen2::Miller uplink : kDigestUplinks) {
      for (const double snr_db : kDigestSnrsDb) {
        for (const std::size_t antennas : {1u, 10u}) {
          for (const double initial_q : {0.0, 2.0}) {
            ImpairedLinkConfig config;
            config.uplink = uplink;
            config.snr_db = snr_db;
            config.num_antennas = antennas;
            config.adaptive_q.initial_q = initial_q;
            config.impair = chain.impair;
            config.recovery = RecoveryPolicy::retries(2);
            grid.push_back(config);
          }
        }
      }
    }
  }
  return grid;
}

/// Digest of 8 sessions at one grid point, each point on its own stream.
std::uint64_t point_digest(const ImpairedLinkConfig& config,
                           std::uint64_t point) {
  Fnv1a h;
  Rng rng = Rng::stream(0x5e55, point);
  for (int s = 0; s < 8; ++s) {
    add_report(h, run_impaired_link_session(config, rng));
  }
  return h.value();
}

/// Digest of 8 BER-probe trials at every chain x uplink x SNR point.
std::uint64_t ber_probe_digest() {
  Fnv1a h;
  std::uint64_t t = 0;
  for (const ChainCase& chain : digest_chains()) {
    for (const gen2::Miller uplink : kDigestUplinks) {
      for (const double snr_db : kDigestSnrsDb) {
        ImpairedLinkConfig config;
        config.uplink = uplink;
        config.snr_db = snr_db;
        config.impair = chain.impair;
        for (int k = 0; k < 8; ++k) {
          const BerProbeResult r =
              ber_probe_trial(config, 64, Rng::stream(0xbe7, t++));
          h.add_size(r.bit_errors);
          h.add(r.frame_error);
        }
      }
    }
  }
  return h.value();
}

TEST(Awgn, ApplyAwgnConsumesOneDrawPerSample) {
  // An attempt's uplink noise continues the stream its downlink noise drew
  // from, so session outputs stay byte-stable only while apply_awgn
  // consumes exactly x.size() raw draws. Every per-sample noise path keeps
  // the same contract: one raw draw per real lane, so 2 per complex sample
  // and 1 per phase increment. n is odd, so a cached Box-Muller pair would
  // leave the state one draw ahead.
  const std::size_t n = 257;
  Waveform wave;
  wave.sample_rate_hz = 1e6;
  wave.samples.assign(n, cplx{1.0, 0.5});
  {
    std::vector<double> x(n, 1.0);
    Rng rng(7);
    apply_awgn(x, 20.0, rng);
    EXPECT_EQ(rng.raw_state(), state_after(7, n)) << "apply_awgn";
  }
  {
    Waveform w = wave;
    Rng rng(7);
    add_awgn(w, 1e-3, rng);
    EXPECT_EQ(rng.raw_state(), state_after(7, 2 * n)) << "add_awgn";
  }
  {
    std::vector<double> x(n, 1.0);
    Rng rng(7);
    apply_phase_noise(x, 1e6, 100.0, rng);
    EXPECT_EQ(rng.raw_state(), state_after(7, n)) << "apply_phase_noise";
  }
  {
    const std::vector<double> reflection(n, 0.5);
    Rng rng(7);
    OobReader(OobReaderConfig{}).decode(reflection, 1e-3, 0.0, 40e3, 16, rng);
    EXPECT_EQ(rng.raw_state(), state_after(7, n)) << "OobReader::decode";
  }
}

TEST(Awgn, HitsRequestedSnr) {
  auto x = sine(20000, 0.05);
  const double signal_power = signal_mean_power(x);
  auto noisy = x;
  Rng rng(1);
  apply_awgn(noisy, 10.0, rng);
  double noise_power = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    noise_power += (noisy[i] - x[i]) * (noisy[i] - x[i]);
  }
  noise_power /= static_cast<double>(x.size());
  const double measured_snr_db = 10.0 * std::log10(signal_power / noise_power);
  EXPECT_NEAR(measured_snr_db, 10.0, 0.5);
}

TEST(Awgn, InfiniteSnrIsNoOp) {
  auto x = sine(256, 0.1);
  const auto clean = x;
  Rng rng(2);
  apply_awgn(x, kInf, rng);
  EXPECT_EQ(x, clean);
}

TEST(Awgn, AllZeroInputStaysZero) {
  std::vector<double> x(64, 0.0);
  Rng rng(3);
  apply_awgn(x, 10.0, rng);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(CarrierOffset, ZeroOffsetIsNoOp) {
  auto x = sine(128, 0.07);
  const auto clean = x;
  apply_carrier_offset(x, 1e6, 0.0, 0.0);
  EXPECT_EQ(x, clean);
}

TEST(CarrierOffset, BeatsSignalDown) {
  // A DC stream through a CFO beat becomes the beat tone itself.
  std::vector<double> x(1000, 1.0);
  apply_carrier_offset(x, 1e6, 1e3, 0.0);
  EXPECT_NEAR(x[0], 1.0, 1e-12);           // cos(0)
  EXPECT_NEAR(x[250], 0.0, 1e-2);          // quarter beat period
  EXPECT_NEAR(x[500], -1.0, 1e-2);         // half beat period
}

TEST(PhaseNoise, ZeroLinewidthIsNoOp) {
  auto x = sine(128, 0.07);
  const auto clean = x;
  Rng rng(4);
  apply_phase_noise(x, 1e6, 0.0, rng);
  EXPECT_EQ(x, clean);
}

TEST(PhaseNoise, DecorrelatesWithLinewidth) {
  // Wider linewidth must destroy more correlation against the clean signal.
  const auto clean = sine(8000, 0.05);
  auto corr_at = [&](double linewidth) {
    auto x = clean;
    Rng rng(5);
    apply_phase_noise(x, 1e6, linewidth, rng);
    double dot = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) dot += x[i] * clean[i];
    return dot / static_cast<double>(x.size());
  };
  EXPECT_GT(corr_at(10.0), corr_at(10e3));
}

TEST(ClockDrift, ZeroDriftReturnsInput) {
  const auto x = sine(512, 0.03);
  EXPECT_EQ(apply_clock_drift(x, 0.0), x);
}

TEST(ClockDrift, DriftShiftsContentButKeepsLength) {
  const auto x = sine(100000, 0.01);
  const auto fast = apply_clock_drift(x, 100.0);   // +100 ppm
  const auto slow = apply_clock_drift(x, -100.0);  // -100 ppm
  // The record length is the receiver's; only the content stretches.
  EXPECT_EQ(fast.size(), x.size());
  EXPECT_EQ(slow.size(), x.size());
  // 100 ppm shifts the read position by 9 samples at i = 90000: the fast
  // clock reads x[i * 1.0001], the slow one x[i * 0.9999] — both integral
  // grid points there, so the interpolation is (near-)exact.
  EXPECT_NEAR(fast[90000], x[90000 + 9], 1e-6);
  EXPECT_NEAR(slow[90000], x[90000 - 9], 1e-6);
  // A fast clock runs off the end of the record and holds the last sample.
  EXPECT_DOUBLE_EQ(fast.back(), x.back());
}

TEST(Bursts, RateZeroIsNoOp) {
  auto x = sine(256, 0.1);
  const auto clean = x;
  Rng rng(6);
  std::size_t erased = 0;
  EXPECT_EQ(apply_burst_erasures(x, 1e6, BurstErasureConfig{}, rng, &erased),
            0u);
  EXPECT_EQ(x, clean);
  EXPECT_EQ(erased, 0u);
}

TEST(Bursts, AttenuatesInsideBurstsOnly) {
  std::vector<double> x(100000, 1.0);
  Rng rng(7);
  std::size_t erased = 0;
  BurstErasureConfig config{.rate_hz = 50.0, .mean_duration_s = 1e-3,
                            .depth_db = 40.0};
  const auto bursts = apply_burst_erasures(x, 1e6, config, rng, &erased);
  ASSERT_GT(bursts, 0u);
  ASSERT_GT(erased, 0u);
  std::size_t attenuated = 0;
  for (double v : x) {
    if (v < 0.5) {
      ++attenuated;
      // depth_db is a power depth: amplitude inside = 10^(-40/20/... ) etc.
      EXPECT_NEAR(v, from_db(-config.depth_db / 2.0), 1e-9);
    } else {
      EXPECT_EQ(v, 1.0);
    }
  }
  EXPECT_EQ(attenuated, erased);
}

TEST(Brownout, DisabledGateIsAllOn) {
  std::vector<double> supply(100, 0.0);
  const auto gate = brownout_gate(supply, 800e3, BrownoutConfig{});
  for (bool g : gate) EXPECT_TRUE(g);
}

TEST(Brownout, ChargesThenSagsUnderFade) {
  BrownoutConfig config;
  config.enabled = true;
  ImpairmentTrace trace;
  BrownoutState rail;
  // 2 ms of strong carrier charges the rail from cold...
  std::vector<double> charge(1600, 1.0);
  const auto g1 = brownout_gate(charge, 800e3, config, &trace, &rail);
  EXPECT_FALSE(g1.front());  // cold rail: chip starts unpowered
  EXPECT_TRUE(g1.back());
  EXPECT_TRUE(rail.on);
  EXPECT_GT(rail.doubler.vc2_v, config.recover_v);

  // ...then a 375 us fade in the middle of a reply sags it below dropout.
  std::vector<double> reply(600, 1.0);
  for (std::size_t i = 200; i < 500; ++i) reply[i] = 0.01;
  ImpairmentTrace fade_trace;
  BrownoutState reply_rail = rail;
  const auto g2 = brownout_gate(reply, 800e3, config, &fade_trace, &reply_rail);
  EXPECT_TRUE(g2.front());  // carried-over state: starts powered
  EXPECT_TRUE(fade_trace.browned_out);
  EXPECT_GT(fade_trace.brownout_samples, 0u);
  std::size_t off = 0;
  for (bool g : g2) off += !g;
  EXPECT_EQ(off, fade_trace.brownout_samples);

  // Without the fade the carried-over rail never drops.
  std::vector<double> steady(600, 1.0);
  ImpairmentTrace steady_trace;
  BrownoutState steady_rail = rail;
  const auto g3 =
      brownout_gate(steady, 800e3, config, &steady_trace, &steady_rail);
  EXPECT_FALSE(steady_trace.browned_out);
  for (bool g : g3) EXPECT_TRUE(g);
}

TEST(Brownout, ApplyZeroesGatedSamples) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  apply_brownout(x, {true, false, true, false});
  EXPECT_EQ(x, (std::vector<double>{1.0, 0.0, 3.0, 0.0}));
}

TEST(Chain, DefaultConfigIsClean) {
  const auto x = sine(512, 0.05);
  Rng rng(8);
  const ImpairmentChain chain{ImpairmentConfig{}};
  ImpairmentTrace trace;
  const auto y = chain.apply(x, 1e6, rng, &trace);
  EXPECT_EQ(y, x);
  EXPECT_EQ(trace.bursts, 0u);
  EXPECT_EQ(trace.erased_samples, 0u);
}

TEST(Chain, DeterministicForSameSeed) {
  ImpairmentConfig config;
  config.snr_db = 10.0;
  config.cfo_hz = 500.0;
  config.phase_noise_linewidth_hz = 100.0;
  config.clock_drift_ppm = 40.0;
  config.bursts = {.rate_hz = 200.0, .mean_duration_s = 1e-4,
                   .depth_db = 30.0};
  const ImpairmentChain chain(config);
  const auto x = sine(4096, 0.02);
  Rng a(99), b(99);
  EXPECT_EQ(chain.apply(x, 1e6, a), chain.apply(x, 1e6, b));
}

TEST(Chain, KnownPowerEqualsMeasuredPower) {
  // A record that carries its exact mean power lets the chain skip the
  // measuring pass. That must change nothing: the same bytes out, the same
  // generator state and trace, under every subset of the stages before
  // AWGN. A burst that hits the record must void the carried power; one
  // that misses must not.
  Rng bits_rng(31);
  auto random_bits = [&](std::size_t n) {
    gen2::Bits bits(n);
    for (auto&& b : bits) b = (bits_rng() & 1u) != 0;
    return bits;
  };
  struct Record {
    const char* name;
    std::vector<double> samples;
    double power;
    double fs;
  };
  std::vector<Record> records;
  for (const bool preamble : {true, false}) {
    std::size_t high = 0;
    auto env = gen2::pie_encode(random_bits(24), gen2::PieTiming{}, 800e3,
                                preamble, &high);
    EXPECT_EQ(high, static_cast<std::size_t>(
                        std::count(env.begin(), env.end(), 1.0)));
    const double power =
        static_cast<double>(high) / static_cast<double>(env.size());
    records.push_back({preamble ? "pie preamble" : "pie frame-sync",
                       std::move(env), power, 800e3});
  }
  records.push_back(
      {"fm0", gen2::fm0_modulate(random_bits(128), 40e3, 800e3), 1.0, 800e3});
  for (const auto mode :
       {gen2::Miller::kM2, gen2::Miller::kM4, gen2::Miller::kM8}) {
    records.push_back(
        {"miller", gen2::miller_modulate(mode, random_bits(32), 40e3, 1.6e6),
         1.0, 1.6e6});
  }

  std::size_t burst_hits = 0;
  std::size_t burst_misses = 0;
  for (const Record& record : records) {
    ASSERT_EQ(record.power, signal_mean_power(record.samples)) << record.name;
    for (unsigned stages = 0; stages < 16; ++stages) {
      ImpairmentConfig config;
      config.snr_db = 6.0;
      if ((stages & 1u) != 0) config.clock_drift_ppm = 20.0;
      if ((stages & 2u) != 0) {
        config.cfo_hz = 200.0;
        config.cfo_phase_rad = 0.3;
      }
      if ((stages & 4u) != 0) config.phase_noise_linewidth_hz = 50.0;
      if ((stages & 8u) != 0) {
        config.bursts = {.rate_hz = 400.0, .mean_duration_s = 2e-4,
                         .depth_db = 40.0};
      }
      const ImpairmentChain chain(config);
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng measured_rng(seed), known_rng(seed);
        ImpairmentTrace measured_trace, known_trace;
        const auto measured =
            chain.apply(record.samples, record.fs, measured_rng,
                        &measured_trace);
        const auto known = chain.apply(record.samples, record.fs, known_rng,
                                       &known_trace, record.power);
        ASSERT_EQ(measured.size(), known.size());
        EXPECT_EQ(0, std::memcmp(measured.data(), known.data(),
                                 measured.size() * sizeof(double)))
            << record.name << " stages " << stages << " seed " << seed;
        EXPECT_EQ(measured_rng.raw_state(), known_rng.raw_state());
        EXPECT_EQ(measured_trace.bursts, known_trace.bursts);
        EXPECT_EQ(measured_trace.erased_samples, known_trace.erased_samples);
        if ((stages & 8u) != 0) {
          ++(known_trace.bursts > 0 ? burst_hits : burst_misses);
        }
      }
    }
  }
  EXPECT_GT(burst_hits, 0u);
  EXPECT_GT(burst_misses, 0u);
}

TEST(RecoveryPolicy, BackoffIsExponential) {
  RecoveryPolicy policy;
  policy.initial_backoff_s = 1e-3;
  policy.backoff_factor = 2.0;
  EXPECT_DOUBLE_EQ(policy.backoff_for_attempt(0), 1e-3);
  EXPECT_DOUBLE_EQ(policy.backoff_for_attempt(1), 2e-3);
  EXPECT_DOUBLE_EQ(policy.backoff_for_attempt(3), 8e-3);
  EXPECT_EQ(RecoveryPolicy::retries(3).max_attempts, 4);
}

TEST(LinkSession, CleanChannelSucceeds) {
  ImpairedLinkConfig config;
  Rng rng(42);
  const auto report = run_impaired_link_session(config, rng);
  EXPECT_TRUE(report.powered);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.epc.size(), 96u);
  EXPECT_EQ(report.recovery.retries, 0);
  EXPECT_EQ(report.recovery.failed_stage, SessionStage::kNone);
  EXPECT_GT(report.last_correlation, 0.9);
}

TEST(LinkSession, ConsumesExactlyOneRngDraw) {
  // The documented contract: the session takes ONE draw (its stream base),
  // independent of the dialogue's outcome or length.
  for (double snr : {30.0, -5.0}) {
    ImpairedLinkConfig config;
    config.snr_db = snr;
    config.recovery = RecoveryPolicy::retries(2);
    Rng used(1234), reference(1234);
    (void)run_impaired_link_session(config, used);
    (void)reference();
    EXPECT_EQ(used(), reference()) << "snr " << snr;
  }
}

TEST(LinkSession, DeterministicForSameSeed) {
  ImpairedLinkConfig config;
  config.snr_db = 7.0;
  config.impair.bursts = {.rate_hz = 100.0, .mean_duration_s = 5e-4,
                          .depth_db = 40.0};
  config.recovery = RecoveryPolicy::retries(3);
  Rng a(5), b(5);
  const auto ra = run_impaired_link_session(config, a);
  const auto rb = run_impaired_link_session(config, b);
  EXPECT_EQ(ra.success, rb.success);
  EXPECT_EQ(ra.rn16, rb.rn16);
  EXPECT_EQ(ra.commands_sent, rb.commands_sent);
  EXPECT_EQ(ra.recovery.retries, rb.recovery.retries);
  EXPECT_EQ(ra.recovery.q_trajectory, rb.recovery.q_trajectory);
  EXPECT_DOUBLE_EQ(ra.elapsed_s, rb.elapsed_s);
}

TEST(LinkSession, ChargeFailureReportsStage) {
  ImpairedLinkConfig config;
  config.medium_loss_db = 12.0;  // amplitude 0.25 < 0.35 threshold
  Rng rng(6);
  const auto report = run_impaired_link_session(config, rng);
  EXPECT_FALSE(report.powered);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.failed_stage, SessionStage::kCharge);
}

TEST(LinkSession, AntennasRescueChargeFailure) {
  ImpairedLinkConfig config;
  config.medium_loss_db = 12.0;
  config.num_antennas = 10;  // sqrt(10) * 0.25 = 0.79 > threshold
  Rng rng(6);
  const auto report = run_impaired_link_session(config, rng);
  EXPECT_TRUE(report.powered);
  EXPECT_TRUE(report.success);
}

TEST(LinkSession, MillerUplinksWork) {
  for (auto m : {gen2::Miller::kM2, gen2::Miller::kM4, gen2::Miller::kM8}) {
    ImpairedLinkConfig config;
    config.uplink = m;
    Rng rng(77);
    const auto report = run_impaired_link_session(config, rng);
    EXPECT_TRUE(report.success) << "miller " << static_cast<int>(m);
  }
}

TEST(LinkSession, ReportsMatchPinnedDigests) {
  // The session engine's output bytes, pinned: a change to record
  // synthesis, the chain or a slicer that moves one noise sample or one
  // decision changes a digest. 16 points x 8 sessions per chain and
  // uplink, each point on its own stream, so the grid runs on the pool.
  struct Expected {
    const char* chain;
    std::uint64_t by_uplink[4];  // FM0, M2, M4, M8
  };
  const Expected expected[] = {
      {"clean", {0xfcf681f2f708db68ull, 0x90461c81a10503b3ull,
                 0x14bb763f00e51133ull, 0x900c0eefcdd2668dull}},
      {"bursts", {0x44f5cefbf2ee7925ull, 0xc97efb1c77750b46ull,
                  0x2afb74a59d921d51ull, 0x6137427f6dc4ec0bull}},
      {"brownout", {0x25cb2fa6b001d816ull, 0xa1b03acabe8f66f5ull,
                    0x7fbe0cadfba6589eull, 0x6d021bafecd196c5ull}},
      {"cfo_pn_drift", {0x631e449c13afe9cdull, 0xdeaeb7cfe198d4cbull,
                        0xab28ccfc6c667e2full, 0x9c2f6c5c61b8b4eeull}},
  };
  const std::vector<ImpairedLinkConfig> grid = digest_grid();
  const std::vector<std::uint64_t> points = parallel_map<std::uint64_t>(
      grid.size(), [&](std::size_t i) { return point_digest(grid[i], i); });
  const auto chains = digest_chains();
  ASSERT_EQ(points.size(), chains.size() * 4 * 16);
  std::size_t i = 0;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    ASSERT_STREQ(chains[c].name, expected[c].chain);
    for (std::size_t u = 0; u < 4; ++u) {
      Fnv1a h;
      for (int p = 0; p < 16; ++p) h.add(points[i++]);
      EXPECT_EQ(h.value(), expected[c].by_uplink[u])
          << chains[c].name << " uplink " << u;
    }
  }
}

TEST(LinkSession, StageStringsAreStable) {
  EXPECT_EQ(to_string(SessionStage::kNone), "none");
  EXPECT_EQ(to_string(SessionStage::kCharge), "charge");
  EXPECT_EQ(to_string(SessionStage::kQuery), "query");
  EXPECT_EQ(to_string(SessionStage::kAck), "ack");
  EXPECT_EQ(to_string(SessionStage::kReqRn), "req_rn");
  EXPECT_EQ(to_string(SessionStage::kRead), "read");
}

TEST(Waterfall, JsonEmittersProduceCompleteDocuments) {
  WaterfallConfig config;
  config.snr_points_db = {30.0, 0.0};
  config.trials_per_point = 4;
  Rng rng(9);
  const auto points = run_ber_waterfall(config, rng);
  ASSERT_EQ(points.size(), 2u);
  const auto json = waterfall_json(points);
  EXPECT_NE(json.find("\"waterfall\""), std::string::npos);
  EXPECT_NE(json.find("\"session_success_rate\""), std::string::npos);

  DepthSweepConfig depth;
  depth.depths_m = {0.02, 0.08};
  depth.trials_per_point = 4;
  Rng rng2(10);
  const auto curve = run_success_vs_depth(depth, rng2);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_GT(curve[1].medium_loss_db, curve[0].medium_loss_db);
  EXPECT_NE(depth_sweep_json(curve).find("\"depth_sweep\""),
            std::string::npos);
}

TEST(Waterfall, BerProbeMatchesPinnedDigest) {
  // ber_probe_trial's bit errors and frame errors over every chain, uplink
  // and SNR of the session digest grid, 8 trials each.
  EXPECT_EQ(ber_probe_digest(), 0xfd1182f0a804837dull);
}

TEST(Waterfall, LossGrowsWithDepth) {
  const auto muscle = media::muscle();
  const double shallow = medium_loss_at_depth_db(muscle, 915e6, 0.02);
  const double deep = medium_loss_at_depth_db(muscle, 915e6, 0.10);
  EXPECT_GT(deep, shallow);
  EXPECT_GT(shallow, 0.0);  // boundary loss alone is already positive
}

}  // namespace
}  // namespace ivnet
