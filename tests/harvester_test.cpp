// Tests for ivnet/harvester: diode threshold physics (Sec. 2.1), Eq. 1,
// the quasi-static rail model, and the carrier-rate doubler of Fig. 1 —
// including the cross-validation between the two simulators.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ivnet/common/units.hpp"
#include "ivnet/harvester/diode.hpp"
#include "ivnet/harvester/energy.hpp"
#include "ivnet/harvester/harvester.hpp"
#include "ivnet/harvester/rectifier.hpp"
#include "ivnet/harvester/transient.hpp"

namespace ivnet {
namespace {

TEST(Diode, IdealConductsAboveZero) {
  const auto d = Diode::ideal();
  EXPECT_DOUBLE_EQ(d.turn_on_voltage(), 0.0);
  EXPECT_GT(d.current(0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.current(-0.1), 0.0);
}

TEST(Diode, ThresholdBlocksBelowVth) {
  const auto d = Diode::threshold(0.3);
  EXPECT_DOUBLE_EQ(d.turn_on_voltage(), 0.3);
  EXPECT_DOUBLE_EQ(d.current(0.25), 0.0);
  EXPECT_GT(d.current(0.35), 0.0);
  EXPECT_FALSE(d.conducting(0.3));
  EXPECT_TRUE(d.conducting(0.31));
}

TEST(Diode, ShockleyExponential) {
  const auto d = Diode::shockley(1e-9);
  // Current should grow ~10x per 60 mV (decade/2.3nVT).
  const double i1 = d.current(0.2);
  const double i2 = d.current(0.26);
  EXPECT_NEAR(i2 / i1, 10.0, 1.5);
  EXPECT_GT(d.turn_on_voltage(), 0.15);
  EXPECT_LT(d.turn_on_voltage(), 0.4);
}

TEST(Diode, ConductionAngleFormula) {
  // vs = 2*vth -> omega = 2*acos(0.5) = 2*pi/3.
  EXPECT_NEAR(conduction_angle(0.6, 0.3), 2.0 * kPi / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(conduction_angle(0.2, 0.3), 0.0);
  EXPECT_NEAR(conduction_angle(1000.0, 0.3), kPi, 0.05);
  // duty = omega / (2*pi) = (2*pi/3) / (2*pi) = 1/3.
  EXPECT_NEAR(conduction_duty(0.6, 0.3), 1.0 / 3.0, 1e-12);
}

TEST(Diode, ConductionAngleMonotoneInAmplitude) {
  double prev = 0.0;
  for (double vs = 0.31; vs < 3.0; vs += 0.1) {
    const double omega = conduction_angle(vs, 0.3);
    EXPECT_GT(omega, prev);
    prev = omega;
  }
}

TEST(Rectifier, Equation1) {
  // Eq. 1: V_DC = N * (Vs - Vth).
  const Rectifier rect(4, Diode::threshold(0.3));
  EXPECT_NEAR(rect.open_circuit_vdc(1.0), 4.0 * 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(rect.open_circuit_vdc(0.3), 0.0);
  EXPECT_DOUBLE_EQ(rect.open_circuit_vdc(0.1), 0.0);
}

TEST(Rectifier, MoreStagesMoreVoltage) {
  const Rectifier r2(2, Diode::threshold(0.3));
  const Rectifier r6(6, Diode::threshold(0.3));
  EXPECT_NEAR(r6.open_circuit_vdc(1.0) / r2.open_circuit_vdc(1.0), 3.0, 1e-12);
}

TEST(Rectifier, EfficiencyCollapsesNearThreshold) {
  const Rectifier rect(4, Diode::threshold(0.3));
  EXPECT_DOUBLE_EQ(rect.efficiency(0.3), 0.0);
  EXPECT_LT(rect.efficiency(0.35), 0.05);
  EXPECT_GT(rect.efficiency(3.0), 0.8);
  // Monotone in input amplitude.
  double prev = 0.0;
  for (double vs = 0.31; vs < 5.0; vs += 0.2) {
    EXPECT_GE(rect.efficiency(vs), prev);
    prev = rect.efficiency(vs);
  }
}

TEST(Harvester, SteadyStateMatchesDividerModel) {
  HarvesterConfig cfg;
  cfg.clamp_voltage_v = 100.0;  // out of the way
  const Harvester h(cfg);
  const std::vector<double> env(20000, 1.5);
  const auto r = h.run(env, 100e3);
  const double r_src = cfg.stages * cfg.source_ohm;
  const double expect = cfg.stages * (1.5 - cfg.vth_v) * cfg.load_ohm /
                        (cfg.load_ohm + r_src);
  EXPECT_NEAR(r.vdc.back(), expect, 0.01 * expect);
}

TEST(Harvester, NothingBelowThreshold) {
  const Harvester h(HarvesterConfig{});
  const std::vector<double> env(10000, 0.25);  // below vth = 0.3
  const auto r = h.run(env, 100e3);
  EXPECT_DOUBLE_EQ(r.peak_vdc, 0.0);
  EXPECT_DOUBLE_EQ(r.conduction_fraction, 0.0);
  EXPECT_EQ(r.first_power_up_s, -1.0);
}

TEST(Harvester, SampleRateIndependence) {
  // The exact two-regime integrator must give the same trajectory whether
  // the (piecewise-constant) envelope is sampled at 10 kHz or 1 MHz.
  const Harvester h(HarvesterConfig{});
  auto make_env = [](double fs) {
    // 1 ms on at 1.2 V, 4 ms off, repeated 4 times.
    std::vector<double> env;
    for (int rep = 0; rep < 4; ++rep) {
      env.insert(env.end(), static_cast<std::size_t>(1e-3 * fs), 1.2);
      env.insert(env.end(), static_cast<std::size_t>(4e-3 * fs), 0.0);
    }
    return env;
  };
  const auto slow = h.run(make_env(10e3), 10e3);
  const auto fast = h.run(make_env(1e6), 1e6);
  EXPECT_NEAR(slow.peak_vdc, fast.peak_vdc, 0.02 * fast.peak_vdc);
  EXPECT_NEAR(slow.vdc.back(), fast.vdc.back(), 0.05 * fast.peak_vdc + 1e-6);
}

TEST(Harvester, ClampLimitsRail) {
  HarvesterConfig cfg;
  cfg.clamp_voltage_v = 3.3;
  const Harvester h(cfg);
  const std::vector<double> env(20000, 10.0);
  const auto r = h.run(env, 100e3);
  EXPECT_LE(r.peak_vdc, 3.3 + 1e-12);
  EXPECT_NEAR(r.peak_vdc, 3.3, 1e-6);
}

TEST(Harvester, PowerUpTimeRecorded) {
  const Harvester h(HarvesterConfig{});
  const std::vector<double> env(50000, 1.0);
  const auto r = h.run(env, 100e3);
  EXPECT_GE(r.first_power_up_s, 0.0);
  EXPECT_GT(r.powered_fraction, 0.5);
}

TEST(Harvester, MinSteadyAmplitudeConsistent) {
  const Harvester h(HarvesterConfig{});
  const double v_min = h.min_steady_amplitude();
  // Simulation agrees with the analytic threshold.
  const std::vector<double> env_hi(40000, v_min * 1.05);
  const std::vector<double> env_lo(40000, v_min * 0.95);
  EXPECT_GE(h.run(env_hi, 100e3).peak_vdc, h.config().operate_voltage_v);
  EXPECT_LT(h.run(env_lo, 100e3).peak_vdc, h.config().operate_voltage_v);
}

TEST(Transient, IdealDoublerReachesTwiceAmplitude) {
  DoublerConfig cfg;
  cfg.diode = Diode::ideal();
  const auto r = simulate_doubler(cfg, 1.0, 915e6, 400);
  EXPECT_NEAR(r.final_v_out, 2.0, 0.1);
}

TEST(Transient, ThresholdDoublerReachesTwoVsMinusVth) {
  DoublerConfig cfg;
  cfg.diode = Diode::threshold(0.3);
  const auto r = simulate_doubler(cfg, 1.0, 915e6, 400);
  // Sec. 2.1.1: 2 * (Vs - Vth) = 1.4 V.
  EXPECT_NEAR(r.final_v_out, 1.4, 0.15);
}

TEST(Transient, BelowThresholdHarvestsNothing) {
  DoublerConfig cfg;
  cfg.diode = Diode::threshold(0.3);
  const auto r = simulate_doubler(cfg, 0.25, 915e6, 200);
  EXPECT_LT(r.final_v_out, 0.02);
}

TEST(Transient, ConductionFractionShrinksWithDepthLikeFig4) {
  // Fig. 4: the conduction angle shrinks as the amplitude approaches the
  // threshold and vanishes below it.
  DoublerConfig cfg;
  cfg.diode = Diode::threshold(0.3);
  const auto near_tx = simulate_doubler(cfg, 2.0, 915e6, 50);
  const auto shallow = simulate_doubler(cfg, 0.6, 915e6, 50);
  const auto deep = simulate_doubler(cfg, 0.2, 915e6, 50);
  EXPECT_GT(near_tx.conduction_fraction, shallow.conduction_fraction);
  EXPECT_GT(shallow.conduction_fraction, 0.0);
  EXPECT_DOUBLE_EQ(deep.conduction_fraction, 0.0);
}

TEST(Transient, SteadyConductionMatchesAnalyticAngle) {
  // In steady state the diodes conduct only near the waveform extremes; the
  // simulated conduction fraction should be within a factor-2 band of the
  // analytic small-ripple estimate.
  DoublerConfig cfg;
  cfg.diode = Diode::threshold(0.3);
  cfg.load_ohm = 50e3;  // meaningful ripple so conduction persists
  const auto r = simulate_doubler(cfg, 1.0, 915e6, 600, 128);
  EXPECT_GT(r.conduction_fraction, 0.005);
  EXPECT_LT(r.conduction_fraction, 0.5);
}

TEST(Energy, AccumulatorCompletesTasks) {
  EnergyAccumulator acc(1e-6);
  EXPECT_EQ(acc.step(1e-6, 0.5), 0);  // 0.5 uJ stored
  EXPECT_EQ(acc.step(1e-6, 0.6), 1);  // crosses 1 uJ
  EXPECT_EQ(acc.completed_tasks(), 1);
}

TEST(Energy, LeakagePreventsProgress) {
  EnergyAccumulator acc(1e-6, /*leakage_w=*/2e-6);
  EXPECT_EQ(acc.step(1e-6, 10.0), 0);
  EXPECT_DOUBLE_EQ(acc.stored_j(), 0.0);
}

// Property sweep: quasi-static rail tracks Eq. 1 across amplitudes.
class RailTracksEq1 : public ::testing::TestWithParam<double> {};

TEST_P(RailTracksEq1, SteadyRailNearDividerTarget) {
  const double vs = GetParam();
  HarvesterConfig cfg;
  cfg.clamp_voltage_v = 1e9;
  const Harvester h(cfg);
  const std::vector<double> env(30000, vs);
  const auto r = h.run(env, 100e3);
  const double r_src = cfg.stages * cfg.source_ohm;
  const double divider = cfg.load_ohm / (cfg.load_ohm + r_src);
  const double expect =
      cfg.stages * std::max(0.0, vs - cfg.vth_v) * divider;
  EXPECT_NEAR(r.vdc.back(), expect, 0.01 * expect + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, RailTracksEq1,
                         ::testing::Values(0.2, 0.35, 0.5, 0.8, 1.2, 2.0, 4.0));

}  // namespace
}  // namespace ivnet
