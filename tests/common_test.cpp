// Tests for ivnet/common: RNG determinism and distributions, statistics,
// units and dB conversions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/common/stats.hpp"
#include "ivnet/common/units.hpp"

namespace ivnet {
namespace {

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(from_db(to_db(123.0)), 123.0, 1e-9);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(6.0), 1.9953, 1e-3);
}

TEST(Units, DbmConversions) {
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(watts_to_dbm(1.0), 30.0, 1e-12);
}

TEST(Units, Wavelength915MHz) {
  EXPECT_NEAR(wavelength(915e6), 0.3276, 1e-3);
}

TEST(Units, WrapPhase) {
  EXPECT_NEAR(wrap_phase(3.0 * kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_phase(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(wrap_phase_symmetric(kTwoPi - 0.25), -0.25, 1e-12);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    saw_lo |= (v == 3);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, PhaseCoversCircle) {
  Rng rng(13);
  int quadrants[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    const double p = rng.phase();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, kTwoPi);
    quadrants[static_cast<int>(p / (kPi / 2.0)) % 4]++;
  }
  for (int q : quadrants) EXPECT_GT(q, 800);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> v;
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(mean(v), 0.0);
}

TEST(Stats, Mean) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
}

TEST(Stats, FractionAbove) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_above(v, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_above(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_above(v, 4.0), 0.0);
}

TEST(Stats, SampleSetSummary) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_EQ(set.size(), 100u);
  const auto s = set.summary();
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p10, 10.9, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

// Property sweep: percentiles are monotone in q for random data.
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotone, MonotoneInQ) {
  Rng rng(GetParam());
  std::vector<double> v(257);
  for (auto& x : v) x = rng.normal(0.0, 10.0);
  double prev = percentile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double p = percentile(v, q);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ivnet
