// Tests for ivnet/sim/waveform_session: the sample-accurate pipeline, and
// its cross-validation against the analytic experiment runner.
#include <gtest/gtest.h>

#include <cstdint>

#include "fnv1a.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/waveform_session.hpp"

namespace ivnet {
namespace {

WaveformSessionConfig fast_config(std::size_t antennas) {
  WaveformSessionConfig cfg;
  cfg.plan = FrequencyPlan::paper_default().truncated(antennas);
  cfg.radio.sample_rate_hz = 800e3;
  cfg.charge_time_s = 0.2;
  return cfg;
}

TEST(WaveformSession, AirSessionSucceeds) {
  Rng rng(1);
  WaveformSession session(fast_config(8), rng);
  const auto report = session.run(air_scenario(2.0), standard_tag(), rng);
  EXPECT_TRUE(report.powered);
  EXPECT_TRUE(report.command_decoded);
  EXPECT_TRUE(report.replied);
  EXPECT_TRUE(report.rn16_decoded);
  EXPECT_GT(report.preamble_correlation, 0.8);
}

TEST(WaveformSession, FarSessionFailsToPower) {
  Rng rng(2);
  WaveformSession session(fast_config(2), rng);
  const auto report = session.run(air_scenario(60.0), standard_tag(), rng);
  EXPECT_FALSE(report.powered);
  EXPECT_FALSE(report.rn16_decoded);
}

TEST(WaveformSession, EnvelopePeakConsistentWithAnalyticScale) {
  // The waveform-path peak envelope must be on the same scale as the
  // analytic single-antenna voltage times the CIB peak bound.
  Rng rng(3);
  const auto scen = air_scenario(3.0);
  const auto tag = standard_tag();
  WaveformSession session(fast_config(4), rng);
  const auto report = session.run(scen, tag, rng);
  const double v1 = single_antenna_voltage(scen, tag, 915e6);
  EXPECT_GT(report.peak_envelope_v, 0.8 * v1);        // at least one antenna
  EXPECT_LT(report.peak_envelope_v, 4.0 * v1 * 1.6);  // bounded by N + fade
}

TEST(WaveformSession, MoreAntennasRaisePeak) {
  Rng rng(4);
  const auto scen = air_scenario(4.0);
  const auto tag = standard_tag();
  double peak2 = 0.0, peak8 = 0.0;
  for (int k = 0; k < 5; ++k) {
    WaveformSession s2(fast_config(2), rng);
    WaveformSession s8(fast_config(8), rng);
    peak2 += s2.run(scen, tag, rng).peak_envelope_v;
    peak8 += s8.run(scen, tag, rng).peak_envelope_v;
  }
  EXPECT_GT(peak8, 2.0 * peak2);
}

TEST(WaveformSession, RepeatedTrialsGiveFreshRn16) {
  Rng rng(5);
  WaveformSession session(fast_config(8), rng);
  const auto a = session.run(air_scenario(2.0), standard_tag(), rng);
  session.new_trial(rng);
  const auto b = session.run(air_scenario(2.0), standard_tag(), rng);
  ASSERT_TRUE(a.rn16_decoded && b.rn16_decoded);
  EXPECT_NE(a.rn16, b.rn16);
}

TEST(WaveformSession, AgreesWithAnalyticRunnerOnPowerUpDecision) {
  // Cross-validation: over several scenarios, the waveform path and the
  // analytic runner must mostly agree on whether the tag powers up.
  Rng rng_a(6), rng_b(6);
  int agreements = 0;
  const int cases = 6;
  const double distances[cases] = {1.0, 3.0, 8.0, 20.0, 45.0, 70.0};
  for (int k = 0; k < cases; ++k) {
    const auto scen = air_scenario(distances[k]);
    WaveformSession session(fast_config(4), rng_a);
    const bool wave_powered =
        session.run(scen, standard_tag(), rng_a).powered;
    const bool analytic_powered =
        can_power_up(scen, standard_tag(),
                     FrequencyPlan::paper_default().truncated(4), 15, 0.5,
                     rng_b);
    agreements += (wave_powered == analytic_powered);
  }
  EXPECT_GE(agreements, cases - 1);  // allow one borderline disagreement
}


TEST(SensorRead, FullDialogueRecoversVitals) {
  Rng rng(10);
  WaveformSession session(fast_config(8), rng);
  const auto report =
      session.run_sensor_read(air_scenario(2.0), standard_tag(), 12.5, rng);
  EXPECT_TRUE(report.powered);
  EXPECT_TRUE(report.inventoried);
  EXPECT_TRUE(report.secured);
  ASSERT_TRUE(report.read_ok);
  EXPECT_EQ(report.commands_sent, 4);  // Query, ACK, Req_RN, Read
  ASSERT_EQ(report.words.size(), 4u);
  // Vitals decode into physiological ranges (porcine gastric sensor).
  EXPECT_GT(report.temperature_c, 37.0);
  EXPECT_LT(report.temperature_c, 40.0);
  EXPECT_GT(report.ph, 1.0);
  EXPECT_LT(report.ph, 4.0);
  EXPECT_GT(report.pressure_mmhg, 2.0);
  EXPECT_LT(report.pressure_mmhg, 20.0);
  EXPECT_EQ(report.words[3], 1u);  // first published sample
}

TEST(SensorRead, RadioRateOtherThanReaderRateStillReadsVitals) {
  // The tag's reflection is modulated at the rate the reader samples it,
  // not at the radio's rate: with the radio at 1 MHz and the reader at its
  // 800 kHz default, both the RN16 and the sensor words must still decode.
  Rng rng(13);
  WaveformSessionConfig cfg = fast_config(8);
  cfg.radio.sample_rate_hz = 1e6;
  ASSERT_NE(cfg.radio.sample_rate_hz, cfg.reader.sample_rate_hz);
  WaveformSession session(cfg, rng);
  const auto run = session.run(air_scenario(2.0), standard_tag(), rng);
  EXPECT_TRUE(run.replied);
  EXPECT_TRUE(run.rn16_decoded);
  const auto report =
      session.run_sensor_read(air_scenario(2.0), standard_tag(), 12.5, rng);
  EXPECT_TRUE(report.powered);
  ASSERT_TRUE(report.read_ok);
  ASSERT_EQ(report.words.size(), 4u);
  EXPECT_GT(report.temperature_c, 37.0);
  EXPECT_LT(report.temperature_c, 40.0);
}

TEST(SensorRead, FailsCleanlyWhenUnpowered) {
  Rng rng(11);
  WaveformSession session(fast_config(2), rng);
  const auto report = session.run_sensor_read(air_scenario(60.0),
                                              standard_tag(), 0.0, rng);
  EXPECT_FALSE(report.powered);
  EXPECT_FALSE(report.inventoried);
  EXPECT_FALSE(report.read_ok);
  EXPECT_EQ(report.commands_sent, 0);
}

TEST(SensorRead, SubcutaneousSwinePlacementWorks) {
  Rng rng(12);
  WaveformSessionConfig cfg = fast_config(8);
  cfg.reader.averaging_periods = 10;
  WaveformSession session(cfg, rng);
  const auto report = session.run_sensor_read(
      swine_subcutaneous_scenario(calib::kSwineStandoffM), standard_tag(),
      3.0, rng);
  EXPECT_TRUE(report.powered);
  EXPECT_TRUE(report.read_ok);
}

/// Every field of a run() report, doubles by their bits.
void add_report(Fnv1a& h, const WaveformSessionReport& r) {
  h.add(r.powered);
  h.add(r.command_decoded);
  h.add(r.replied);
  h.add(r.rn16_decoded);
  h.add(r.preamble_correlation);
  h.add(r.rn16);
  h.add(r.peak_envelope_v);
  h.add(r.peak_rail_v);
  const OobDecodeReport& o = r.reader_report;
  h.add(o.success);
  h.add(o.saturated);
  h.add(o.preamble_correlation);
  h.add_size(o.bits.size());
  for (bool b : o.bits) h.add(b);
  h.add(o.signal_power_dbm);
  h.add(o.jam_power_dbm);
  h.add(o.snr_db);
  h.add_size(o.averaged_signal.size());
  for (double v : o.averaged_signal) h.add(v);
}

/// Every field of a run_sensor_read() report, doubles by their bits.
void add_report(Fnv1a& h, const SensorReadReport& r) {
  h.add(r.powered);
  h.add(r.inventoried);
  h.add(r.secured);
  h.add(r.read_ok);
  h.add(r.handle);
  h.add_size(r.words.size());
  for (std::uint16_t w : r.words) h.add(w);
  h.add(r.temperature_c);
  h.add(r.ph);
  h.add(r.pressure_mmhg);
  h.add(r.commands_sent);
  h.add(r.recovery.retries);
  h.add(r.recovery.timeouts);
  h.add(r.recovery.backoff_total_s);
  h.add(r.recovery.failed_stage);
  h.add_size(r.recovery.q_trajectory.size());
  for (std::uint8_t q : r.recovery.q_trajectory) h.add(q);
}

TEST(WaveformSession, ReportsMatchPinnedDigests) {
  // A whole session's output bytes, pinned: a change to the radio's
  // carriers or PA, the channel sum, the envelope detector, the tag or the
  // OOB reader that moves one sample or one decision changes a digest.
  // Octoclock and free-running arrays (PPS skew, ppm error) x N x air and
  // swine-gastric placements, 6 rounds each of run() then
  // run_sensor_read().
  struct Case {
    bool free_running;
    std::size_t antennas;
    bool gastric;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {false, 1, false, 0x6f18c7a0444d4a94ull},
      {false, 1, true, 0x7e64af3edeeb3137ull},
      {false, 3, false, 0xadebe04f848b1289ull},
      {false, 3, true, 0x8033713d2780f08eull},
      {false, 8, false, 0xa8767d6dee6297c0ull},
      {false, 8, true, 0xbd18c4df21752ed8ull},
      {false, 10, false, 0x7e9785ad87c90399ull},
      {false, 10, true, 0x9d08a3c68b3d8ffeull},
      {true, 1, false, 0xf65157e93e6341d6ull},
      {true, 1, true, 0x3d5ff8a94637c795ull},
      {true, 3, false, 0x1b4bdfec7f67c61cull},
      {true, 3, true, 0x3d445aefd6d07449ull},
      {true, 8, false, 0x0b69950a25669e87ull},
      {true, 8, true, 0xf34412d2fbf44b87ull},
      {true, 10, false, 0xc03002019b658831ull},
      {true, 10, true, 0xede53b1339df81ddull},
  };
  int read_ok = 0;
  for (const Case& c : cases) {
    WaveformSessionConfig cfg = fast_config(c.antennas);
    if (c.free_running) cfg.radio.clocks = ClockDistribution::free_running();
    cfg.reader.averaging_periods = 10;
    const Scenario scen =
        c.gastric ? swine_gastric_scenario(calib::kSwineStandoffM)
                  : air_scenario(2.0);
    Rng rng(100 * c.antennas + 10 * c.free_running + c.gastric);
    WaveformSession session(cfg, rng);
    Fnv1a h;
    for (int round = 0; round < 6; ++round) {
      session.new_trial(rng);
      add_report(h, session.run(scen, standard_tag(), rng));
      const SensorReadReport read =
          session.run_sensor_read(scen, standard_tag(), round * 10.0, rng);
      read_ok += read.read_ok;
      add_report(h, read);
    }
    EXPECT_EQ(h.value(), c.digest)
        << (c.free_running ? "free-running" : "octoclock") << " N="
        << c.antennas << (c.gastric ? " gastric" : " air") << " 0x"
        << std::hex << h.value();
  }
  EXPECT_GT(read_ok, 0);  // the grid reaches the decoded-words path
}

}  // namespace
}  // namespace ivnet
