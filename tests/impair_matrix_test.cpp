// The end-to-end impaired-session test matrix: media x SNR x antenna count
// x impairment set, run deterministically through the parallel engine.
// This is the PR's primary proof: success degrades monotonically with SNR,
// the clean corner is near-perfect, antennas and retries buy back sessions,
// and everything is reproducible bit-for-bit.
#include <gtest/gtest.h>

#include <map>

#include "ivnet/common/parallel.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "bit_fields.hpp"

namespace ivnet {
namespace {

// Representative one-way media losses (dB at the session's depth): tissue
// columns from benign (water tank) to hostile (gastric).
const std::vector<MatrixMedium> kMedia = {
    {"water", 2.0}, {"muscle", 6.0}, {"gastric", 9.0}};
const std::vector<double> kSnrDb = {30.0, 20.0, 10.0, 0.0};
const std::vector<std::size_t> kAntennas = {1, 3, 10};

MatrixConfig matrix_config() {
  MatrixConfig config;
  config.media = kMedia;
  config.snr_points_db = kSnrDb;
  config.antenna_counts = kAntennas;
  config.trials_per_cell = 24;
  config.link.recovery = RecoveryPolicy::retries(2);
  return config;
}

TEST(ImpairMatrix, FullMatrixShapeAndCleanCorner) {
  Rng rng(2024);
  const SweepRun<MatrixConfig> one{matrix_config(), rng(), 0};
  const auto cells = run_session_matrices({&one, 1}).front();
  ASSERT_EQ(cells.size(), kMedia.size() * kSnrDb.size() * kAntennas.size());

  for (const auto& cell : cells) {
    EXPECT_EQ(cell.trials, 24u);
    EXPECT_GE(cell.success_rate, 0.0);
    EXPECT_LE(cell.success_rate, 1.0);
  }

  // Clean corner: best medium, highest SNR, most antennas — >= 99%.
  const auto& best = *std::find_if(cells.begin(), cells.end(), [](auto& c) {
    return c.medium == "water" && c.snr_db == 30.0 && c.num_antennas == 10;
  });
  EXPECT_GE(best.success_rate, 0.99);
}

TEST(ImpairMatrix, SuccessNonIncreasingAsSnrDrops) {
  // Common random numbers across cells make the per-(medium, antennas)
  // success curve monotone in SNR in a single deterministic run.
  Rng rng(2024);
  const SweepRun<MatrixConfig> one{matrix_config(), rng(), 0};
  const auto cells = run_session_matrices({&one, 1}).front();
  std::map<std::pair<std::string, std::size_t>, std::vector<double>> curves;
  for (const auto& cell : cells) {
    curves[{cell.medium, cell.num_antennas}].push_back(cell.success_rate);
  }
  ASSERT_EQ(curves.size(), kMedia.size() * kAntennas.size());
  for (const auto& [key, curve] : curves) {
    ASSERT_EQ(curve.size(), kSnrDb.size());
    for (std::size_t i = 1; i < curve.size(); ++i) {
      // snr_points_db is descending, so success must be non-increasing.
      EXPECT_LE(curve[i], curve[i - 1])
          << key.first << " x" << key.second << " at " << kSnrDb[i] << " dB";
    }
  }
}

TEST(ImpairMatrix, MoreAntennasNeverHurt) {
  Rng rng(2024);
  const SweepRun<MatrixConfig> one{matrix_config(), rng(), 0};
  const auto cells = run_session_matrices({&one, 1}).front();
  std::map<std::pair<std::string, double>, std::vector<double>> curves;
  for (const auto& cell : cells) {
    curves[{cell.medium, cell.snr_db}].push_back(cell.success_rate);
  }
  for (const auto& [key, curve] : curves) {
    ASSERT_EQ(curve.size(), kAntennas.size());  // ordered 1, 3, 10
    for (std::size_t i = 1; i < curve.size(); ++i) {
      EXPECT_GE(curve[i], curve[i - 1])
          << key.first << " at " << key.second << " dB";
    }
  }
}

TEST(ImpairMatrix, RetriesRecoverBurstLossesUnderIdenticalSeeds) {
  // On a bursty channel, a retry-free reader loses sessions that the
  // recovering reader completes — trial for trial, same rng streams.
  ImpairedLinkConfig base;
  base.snr_db = 30.0;
  base.impair.bursts = {.rate_hz = 150.0, .mean_duration_s = 5e-4,
                        .depth_db = 40.0};
  const std::size_t trials = 40;

  std::size_t plain_ok = 0, recovering_ok = 0, recovered = 0, regressed = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng plain_rng = Rng::stream(77, t);
    Rng recovering_rng = Rng::stream(77, t);
    ImpairedLinkConfig plain = base;  // max_attempts = 1
    ImpairedLinkConfig recovering = base;
    recovering.recovery = RecoveryPolicy::retries(3);
    const auto p = run_impaired_link_session(plain, plain_rng);
    const auto r = run_impaired_link_session(recovering, recovering_rng);
    plain_ok += p.success;
    recovering_ok += r.success;
    recovered += (!p.success && r.success);
    regressed += (p.success && !r.success);
    if (r.success && r.recovery.retries > 0) {
      EXPECT_GT(r.recovery.backoff_total_s, 0.0);
    }
  }
  EXPECT_LT(plain_ok, trials);        // the bursts really bite
  EXPECT_GT(recovered, 0u);           // and retries really recover sessions
  EXPECT_EQ(regressed, 0u);           // first attempts share the rng stream
  EXPECT_GT(recovering_ok, plain_ok);
}

TEST(ImpairMatrix, ImpairmentSetsOnlyDegrade) {
  // Adding impairments at fixed SNR never improves the success rate:
  // compare the clean set against CFO+drift and against bursts.
  const std::size_t trials = 24;
  auto success_with = [&](const ImpairmentConfig& impair) {
    std::size_t ok = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      ImpairedLinkConfig config;
      config.snr_db = 12.0;
      config.impair = impair;
      Rng rng = Rng::stream(31, t);
      ok += run_impaired_link_session(config, rng).success;
    }
    return ok;
  };
  const auto clean = success_with(ImpairmentConfig{});
  ImpairmentConfig rf;
  rf.cfo_hz = 300.0;
  rf.phase_noise_linewidth_hz = 50.0;
  rf.clock_drift_ppm = 30.0;
  ImpairmentConfig bursty;
  bursty.bursts = {.rate_hz = 400.0, .mean_duration_s = 5e-4,
                   .depth_db = 40.0};
  EXPECT_GE(clean, success_with(rf));
  EXPECT_GE(clean, success_with(bursty));
  EXPECT_EQ(clean, trials);  // 12 dB uplink is above the decoder cliff
}

TEST(ImpairMatrix, WaterfallMonotoneAndRerunStable) {
  WaterfallConfig config;
  config.snr_points_db = {30.0, 18.0, 8.0, -2.0};
  config.trials_per_point = 32;
  Rng rng(5150);
  const SweepRun<WaterfallConfig> one{config, rng(), 0};
  const auto points = run_ber_waterfalls({&one, 1}).front();
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].session_success_rate,
              points[i - 1].session_success_rate);
    EXPECT_GE(points[i].ber, points[i - 1].ber);
  }
  EXPECT_GE(points.front().session_success_rate, 0.99);
  EXPECT_LE(points.back().session_success_rate, 0.1);

  // Bitwise-identical points for an identical rerun.
  EXPECT_EQ(fields(points), fields(run_ber_waterfalls({&one, 1}).front()));
}

TEST(ImpairMatrix, DepthCurveDecays) {
  DepthSweepConfig config;
  config.depths_m = {0.01, 0.04, 0.08, 0.12};
  config.trials_per_point = 16;
  config.link.num_antennas = 10;
  config.link.recovery = RecoveryPolicy::retries(1);
  Rng rng(808);
  const auto curve = run_success_vs_depth(config, rng);
  ASSERT_EQ(curve.size(), 4u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].medium_loss_db, curve[i - 1].medium_loss_db);
    EXPECT_LE(curve[i].success_rate, curve[i - 1].success_rate);
  }
  EXPECT_GE(curve.front().success_rate, 0.99);
}

}  // namespace
}  // namespace ivnet
