// Tests for ivnet/cib/hopping: the Sec. 3.7 adaptive center-frequency
// extension against frequency-selective fading.
#include <gtest/gtest.h>

#include <cmath>

#include "ivnet/cib/hopping.hpp"
#include "ivnet/cib/frequency_plan.hpp"

namespace ivnet {
namespace {

TEST(Hopper, StartsOnFirstBand) {
  const FrequencyHopper hopper{HopperConfig{}};
  EXPECT_EQ(hopper.current_band(), 0u);
  EXPECT_DOUBLE_EQ(hopper.current_center_hz(), 903e6);
  EXPECT_EQ(hopper.hops(), 0u);
}

TEST(Hopper, StaysOnGoodBand) {
  HopperConfig cfg;
  cfg.candidate_centers_hz = {903e6, 915e6};
  FrequencyHopper hopper(cfg);
  // Strong readings: no reason to leave (the other band is optimistic but
  // the current one is not below hop_ratio of anything measured).
  hopper.report(10.0);
  EXPECT_EQ(hopper.current_band(), 1u);  // unprobed band still optimistic
  // After probing band 1 and finding it weaker, return to band 0.
  hopper.report(2.0);
  EXPECT_EQ(hopper.current_band(), 0u);
  const std::size_t band = hopper.current_band();
  for (int k = 0; k < 10; ++k) hopper.report(10.0);
  EXPECT_EQ(hopper.current_band(), band);
}

TEST(Hopper, LeavesFadedBand) {
  HopperConfig cfg;
  cfg.candidate_centers_hz = {903e6, 915e6, 927e6};
  FrequencyHopper hopper(cfg);
  hopper.report(1.0);   // band 0 is weak -> explore
  const auto after_first = hopper.current_band();
  EXPECT_NE(after_first, 0u);
  EXPECT_GE(hopper.hops(), 1u);
}

TEST(Hopper, ConvergesToBestBand) {
  HopperConfig cfg;
  cfg.candidate_centers_hz = {900e6, 910e6, 920e6};
  FrequencyHopper hopper(cfg);
  const double truth[3] = {1.0, 8.0, 3.0};
  for (int step = 0; step < 20; ++step) {
    hopper.report(truth[hopper.current_band()]);
  }
  EXPECT_EQ(hopper.current_band(), 1u);
}

TEST(BandPeak, FlatChannelSameInEveryBand) {
  Rng rng(1);
  const std::vector<double> amps(4, 1.0);
  const auto ch = make_blind_channel(amps, rng);  // zero delay: flat
  const auto offsets = FrequencyPlan::paper_default().truncated(4).offsets_hz();
  const double b0 = band_peak_amplitude(ch, offsets, 0.0);
  const double b1 = band_peak_amplitude(ch, offsets, 12e6);
  EXPECT_NEAR(b0, b1, 0.01 * b0);
}

TEST(BandPeak, SelectiveChannelVariesAcrossBands) {
  Rng rng(2);
  const std::vector<double> amps(6, 1.0);
  const auto offsets = FrequencyPlan::paper_default().truncated(6).offsets_hz();
  bool varied = false;
  for (int draw = 0; draw < 10 && !varied; ++draw) {
    const auto ch = make_multipath_channel(amps, 8, 120e-9, rng);
    const double b0 = band_peak_amplitude(ch, offsets, 0.0);
    const double b1 = band_peak_amplitude(ch, offsets, 12e6);
    varied = std::abs(b0 - b1) > 0.15 * std::max(b0, b1);
  }
  EXPECT_TRUE(varied);
}

TEST(BandPeak, HoppingRecoversFromNotchedBand) {
  // End-to-end: a frequency-selective channel leaves some bands notched;
  // the hopper should end on a band delivering at least the median peak.
  Rng rng(3);
  const std::vector<double> amps(8, 1.0);
  const auto offsets = FrequencyPlan::paper_default().truncated(8).offsets_hz();
  HopperConfig cfg;
  cfg.candidate_centers_hz = {903e6, 909e6, 915e6, 921e6, 927e6};

  int improved = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto ch = make_multipath_channel(amps, 8, 120e-9, rng);
    std::vector<double> peaks(cfg.candidate_centers_hz.size());
    for (std::size_t b = 0; b < peaks.size(); ++b) {
      peaks[b] = band_peak_amplitude(
          ch, offsets, cfg.candidate_centers_hz[b] - 915e6);
    }
    FrequencyHopper hopper(cfg);
    for (int step = 0; step < 15; ++step) {
      hopper.report(peaks[hopper.current_band()]);
    }
    const double best = *std::max_element(peaks.begin(), peaks.end());
    // The hopper tolerates bands within hop_ratio of the best; require it
    // to end somewhere in that acceptable region.
    if (peaks[hopper.current_band()] >= 0.65 * best) ++improved;
  }
  EXPECT_GE(improved, trials * 8 / 10);
}

}  // namespace
}  // namespace ivnet
