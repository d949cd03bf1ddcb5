// Integration tests: the full waveform path — RadioArray transmission
// through a blind Channel into the tag's envelope detector and harvester,
// and back out through the out-of-band reader. These exercise the same code
// a real deployment would run, sample by sample, rather than the analytic
// shortcuts the experiment runners use.
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/cib/baseline.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/cib/transmitter.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/sim/experiment.hpp"
#include "waveform_fixtures.hpp"

namespace ivnet {
namespace {

TEST(Integration, WaveformPeakMatchesAnalyticPrediction) {
  // Transmit CW from a 5-antenna CIB array through a blind channel; the
  // received waveform's peak must match the analytic cib_peak_amplitude.
  Rng rng(1);
  const auto plan = FrequencyPlan::paper_default().truncated(5);
  RadioArrayConfig cfg;
  cfg.sample_rate_hz = 20e3;  // envelope-scale is enough for CW
  cfg.drive_dbm = 0.0;        // 1 mW: unit-ish amplitudes
  CibTransmitter tx(plan, cfg, rng);

  const std::vector<double> amps(5, 1.0);
  Channel channel = make_blind_channel(amps, rng);
  // Fold the PLL phases into the channel evaluation by receiving the real
  // transmitted waveforms.
  const auto waves = tx.transmit_cw(1.0);
  const auto rx = receive(channel, waves, plan.offsets_hz());

  // Analytic peak with the COMBINED phases (channel + PLL).
  std::vector<double> combined_phases(5), tone_amps(5);
  const auto pll_phases = tx.radios().initial_phases();
  for (std::size_t i = 0; i < 5; ++i) {
    const cplx h = channel.gain(i, plan.offsets_hz()[i]);
    combined_phases[i] = std::arg(h) + pll_phases[i];
    tone_amps[i] = std::abs(h);
  }
  const double drive_amp = std::sqrt(dbm_to_watts(0.0));
  const auto env = cib_envelope(plan.offsets_hz(), combined_phases, tone_amps,
                                1.0, 20000);
  const double analytic_peak = drive_amp * max_value(env);
  EXPECT_NEAR(peak_amplitude(rx), analytic_peak, 0.02 * analytic_peak);
}

TEST(Integration, CibWaveformBeatsSameFrequencyBaselineWaveform) {
  Rng rng(2);
  const auto plan = FrequencyPlan::paper_default().truncated(8);
  RadioArrayConfig cfg;
  cfg.sample_rate_hz = 20e3;
  cfg.drive_dbm = 0.0;

  int cib_wins = 0;
  const int trials = 10;
  for (int k = 0; k < trials; ++k) {
    CibTransmitter cib_tx(plan, cfg, rng);
    CibTransmitter base_tx(
        FrequencyPlan(plan.center_hz(), std::vector<double>(8, 0.0)), cfg,
        rng);

    const std::vector<double> amps(8, 1.0);
    Channel channel = make_blind_channel(amps, rng);
    const auto cib_rx = receive(channel, cib_tx.transmit_cw(1.0),
                                plan.offsets_hz());
    const std::vector<double> zeros(8, 0.0);
    const auto base_rx =
        receive(channel, base_tx.transmit_cw(1.0), zeros);
    if (peak_amplitude(cib_rx) > peak_amplitude(base_rx)) ++cib_wins;
  }
  // Fig. 12: CIB outperforms the same-frequency baseline in >99% of trials.
  EXPECT_GE(cib_wins, 9);
}

TEST(Integration, TagDecodesCommandCarriedOverWaveformPath) {
  // Full downlink: PIE-modulated CIB waveforms -> channel -> envelope ->
  // tag. Uses a 2-antenna array so the command rides a time-varying
  // envelope, checking the flatness constraint does its job near the peak.
  Rng rng(3);
  const auto plan = FrequencyPlan::paper_default().truncated(2);
  RadioArrayConfig cfg;          // 800 kHz, 30 dBm
  CibTransmitter tx(plan, cfg, rng);

  const auto query_bits = gen2::QueryCommand{.q = 0}.encode();
  const auto waves = tx.radios().transmit(gen2::pie_encode(
      query_bits, gen2::PieTiming{}, cfg.sample_rate_hz, true));

  // A benign channel draw: aligned phases at t=0 (the command is short, so
  // the envelope stays near its peak across it).
  std::vector<std::vector<Ray>> rays;
  for (int i = 0; i < 2; ++i) {
    rays.push_back({Ray{.amplitude = 1.0, .delay_s = 0.0,
                        .phase = -tx.radios().initial_phases()[static_cast<std::size_t>(i)]}});
  }
  Channel channel((std::vector<std::vector<Ray>>(rays)));
  const auto rx = receive(channel, waves, plan.offsets_hz());

  auto env = envelope(rx);
  // Scale the physical volts to a tag-friendly level.
  const double peak = max_value(env);
  for (auto& v : env) v *= 2.0 / peak;

  TagDevice tag(standard_tag());
  const auto result = tag.receive_downlink(env, cfg.sample_rate_hz);
  EXPECT_TRUE(result.powered);
  EXPECT_TRUE(result.command_decoded);
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_EQ(result.reply->size(), 16u);
}

TEST(Integration, EndToEndUplinkThroughOobReader) {
  // Tag reply -> reflection waveform -> out-of-band reader decode, with the
  // exact RN16 recovered.
  Rng rng(4);
  TagDevice tag(standard_tag());
  auto env = gen2::pie_encode(gen2::QueryCommand{.q = 0}.encode(),
                              gen2::PieTiming{}, 800e3, true);
  for (auto& v : env) v *= 2.0;
  const auto down = tag.receive_downlink(env, 800e3);
  ASSERT_TRUE(down.reply.has_value());

  const auto reflection = tag.backscatter_reflection(*down.reply, 800e3);
  const OobReader reader(OobReaderConfig{});
  const auto report =
      reader.decode(reflection, 1e-4, 1e-6, standard_tag().blf_hz,
                    down.reply->size(), rng);
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.bits.size(), 16u);
  std::uint16_t decoded_rn16 = 0;
  for (bool b : report.bits) {
    decoded_rn16 = static_cast<std::uint16_t>((decoded_rn16 << 1) | (b ? 1 : 0));
  }
  EXPECT_EQ(decoded_rn16, tag.state_machine().last_rn16());
}

TEST(Integration, FreeRunningClocksDegradeThePlan) {
  // Ablation: without the shared Octoclock reference, ppm-scale carrier
  // errors swamp the Hz-scale CIB offsets; the envelope period is destroyed
  // (peaks no longer recur at the 1 s cadence the reader expects).
  Rng rng(5);
  const auto plan = FrequencyPlan::paper_default().truncated(4);
  RadioArrayConfig good_cfg;
  RadioArrayConfig bad_cfg;
  bad_cfg.clocks = ClockDistribution::free_running();
  const CibTransmitter good(plan, good_cfg, rng);
  const CibTransmitter bad(plan, bad_cfg, rng);

  const auto good_offsets = good.radios().actual_offsets_hz();
  const auto bad_offsets = bad.radios().actual_offsets_hz();
  double good_err = 0.0, bad_err = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    good_err += std::abs(good_offsets[i] - plan.offsets_hz()[i]);
    bad_err += std::abs(bad_offsets[i] - plan.offsets_hz()[i]);
  }
  EXPECT_LT(good_err, 1e-6);
  EXPECT_GT(bad_err, 400.0);
}

TEST(Integration, OrientationSweepKeepsGainStable) {
  // Fig. 10(b): the CIB gain is independent of sensor orientation (the
  // absolute power drops, but the ratio to a single antenna holds).
  Rng rng(6);
  const auto plan = FrequencyPlan::paper_default();
  std::vector<double> medians;
  for (double theta : {0.0, 0.5 * kPi, kPi, 1.5 * kPi}) {
    auto scen = water_tank_scenario(0.05, 0.5);
    scen.orientation_rad = theta;
    const auto trials =
        run_gain_trials(scen, standard_tag(), plan, 40, rng);
    medians.push_back(summarize_cib(trials).p50);
  }
  const double lo = *std::min_element(medians.begin(), medians.end());
  const double hi = *std::max_element(medians.begin(), medians.end());
  EXPECT_LT(hi / lo, 2.2);  // stable within trial noise
}

}  // namespace
}  // namespace ivnet
