// Cross-validation tests: independent implementations of the same physics
// must agree. These are the checks that catch a modelling bug that unit
// tests (which share the model) would miss.
#include <gtest/gtest.h>

#include <cmath>

#include "goertzel.hpp"
#include "ivnet/cib/baseline.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/harvester/harvester.hpp"
#include "ivnet/harvester/transient.hpp"
#include "ivnet/media/medium.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/signal/waveform.hpp"
#include "waveform_fixtures.hpp"

namespace ivnet {
namespace {

// --- Quasi-static harvester vs carrier-rate transient doubler.
//
// The quasi-static model claims VDC tracks N*(A - Vth) (with the loading
// divider); the transient simulator integrates the actual diode currents at
// 915 MHz. For a single voltage-doubler stage the two must agree on the
// steady output within ~15% across drive levels.
class HarvesterAgreement : public ::testing::TestWithParam<double> {};

TEST_P(HarvesterAgreement, SteadyOutputsMatch) {
  const double amplitude = GetParam();
  const double vth = 0.3;

  // Carrier-rate truth.
  DoublerConfig doubler;
  doubler.diode = Diode::threshold(vth);
  doubler.load_ohm = 1e6;  // light load: open-circuit-like
  const auto transient = simulate_doubler(doubler, amplitude, 915e6, 500);

  // Quasi-static model of the equivalent doubler: the Fig. 1 circuit yields
  // 2*(A - Vth); our N-stage abstraction with N = 2 and the same light load.
  HarvesterConfig cfg;
  cfg.stages = 2;
  cfg.vth_v = vth;
  cfg.load_ohm = 1e6;
  cfg.source_ohm = 100.0;
  cfg.clamp_voltage_v = 1e9;
  const Harvester harvester(cfg);
  const std::vector<double> env(20000, amplitude);
  const auto quasi = harvester.run(env, 100e3);

  if (amplitude <= vth) {
    EXPECT_LT(transient.final_v_out, 0.05);
    EXPECT_LT(quasi.vdc.back(), 0.05);
  } else {
    EXPECT_NEAR(transient.final_v_out, quasi.vdc.back(),
                0.15 * quasi.vdc.back() + 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Drives, HarvesterAgreement,
                         ::testing::Values(0.2, 0.4, 0.6, 1.0, 1.5, 2.5));

// --- Analytic CIB envelope vs brute-force waveform synthesis.
class EnvelopeAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnvelopeAgreement, AnalyticMatchesWaveform) {
  Rng rng(GetParam());
  const std::vector<double> offsets = {0, 7, 20, 49, 68};
  std::vector<double> phases(offsets.size());
  for (auto& p : phases) p = rng.phase();

  // Waveform truth: sum of tones, magnitude.
  const double fs = 4096.0;
  const auto wave = make_multitone(offsets, phases, {},
                                   static_cast<std::size_t>(fs), fs);
  const auto env_wave = envelope(wave);

  // Analytic evaluator on the same grid.
  const auto env_analytic =
      cib_envelope(offsets, phases, {}, 1.0, static_cast<std::size_t>(fs));
  ASSERT_EQ(env_wave.size(), env_analytic.size());
  for (std::size_t i = 0; i < env_wave.size(); i += 111) {
    EXPECT_NEAR(env_wave[i], env_analytic[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Eq. 1 rectifier vs the harvester's steady rail with a heavy load.
TEST(CrossCheck, RectifierAndHarvesterShareEq1) {
  const Rectifier rect(4, Diode::threshold(0.3));
  HarvesterConfig cfg;  // stages 4, vth 0.3
  cfg.clamp_voltage_v = 1e9;
  const Harvester harvester(cfg);
  for (double a : {0.5, 1.0, 2.0}) {
    const std::vector<double> env(30000, a);
    const double rail = harvester.run(env, 100e3).vdc.back();
    const double divider =
        cfg.load_ohm / (cfg.load_ohm + cfg.stages * cfg.source_ohm);
    EXPECT_NEAR(rail, rect.open_circuit_vdc(a) * divider, 0.02 * rail + 1e-9);
  }
}

// --- Medium attenuation: exact formula vs the low-loss approximation
// --- alpha ~ (sigma/2) * sqrt(mu/eps) for small loss tangents.
TEST(CrossCheck, AlphaMatchesLowLossApproximation) {
  const Medium mild("mild", 50.0, 0.2);  // loss tangent ~0.08 at 915 MHz
  const double exact = mild.alpha(915e6);
  const double approx =
      0.5 * mild.sigma() * std::sqrt(kMu0 / (mild.eps_r() * kEpsilon0));
  EXPECT_NEAR(exact, approx, 0.01 * approx);
}

// --- Goertzel vs time-domain mean power (Parseval-style check).
TEST(CrossCheck, BandPowerAccountsForMultitoneEnergy) {
  const std::vector<double> offsets = {100.0, 250.0, 400.0};
  const std::vector<double> phases = {0.1, 1.2, 2.3};
  const auto wave = make_multitone(offsets, phases, {}, 8192, 8192.0);
  // Each unit tone contributes |X|^2 = 1 at its own bin.
  double sum = 0.0;
  for (double f : offsets) sum += goertzel_power(wave, f);
  EXPECT_NEAR(sum, 3.0, 0.01);
  EXPECT_NEAR(mean_power(wave), 3.0, 0.01);
}

// --- CIB peak amplitude: channel-based evaluator vs direct waveform max.
TEST(CrossCheck, ChannelPeakMatchesWaveformPeak) {
  Rng rng(11);
  const std::vector<double> amps = {0.7, 1.1, 0.9, 1.3};
  const auto ch = make_blind_channel(amps, rng);
  const std::vector<double> offsets = {0, 7, 20, 49};

  const double via_channel = cib_peak_amplitude(ch, offsets, 1.0);

  std::vector<double> phases(4), mags(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const cplx h = ch.gain(i, offsets[i]);
    phases[i] = std::arg(h);
    mags[i] = std::abs(h);
  }
  const auto wave = make_multitone(offsets, phases, mags, 16384, 16384.0);
  EXPECT_NEAR(via_channel, peak_amplitude(wave), 0.01 * via_channel);
}

}  // namespace
}  // namespace ivnet
