#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace tdr {
namespace {

TEST(OnlineStatsTest, EmptyStats) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(OnlineStatsTest, Ci95ShrinksWithSamples) {
  OnlineStats small, large;
  for (int i = 0; i < 10; ++i) small.Add(i % 5);
  for (int i = 0; i < 1000; ++i) large.Add(i % 5);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 5}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 5u);
  // Small values land in exact unit buckets.
  EXPECT_NEAR(h.Median(), 3.0, 1.0);
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  double p10 = h.Percentile(10);
  double p50 = h.Percentile(50);
  double p90 = h.Percentile(90);
  double p99 = h.Percentile(99);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  // Coarse upper buckets may clamp both to max; monotonicity must hold.
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(p50, 500, 120);  // bucketed approximation
}

// The bucket a std::lower_bound over the bounds finds, clamped to the
// last bucket: what BucketOf must agree with.
std::size_t SearchedBucket(std::uint64_t value) {
  const auto bounds = Histogram::Bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return std::min<std::size_t>(it - bounds.begin(), bounds.size() - 1);
}

TEST(HistogramTest, BucketOfAgreesWithSearch) {
  const auto bounds = Histogram::Bounds();
  ASSERT_EQ(bounds.size(), 111u);
  for (std::uint64_t v = 0; v < (1u << 16); ++v) {
    ASSERT_EQ(Histogram::BucketOf(v), SearchedBucket(v)) << v;
  }
  for (std::uint64_t bound : bounds) {
    for (std::uint64_t v : {bound - 1, bound, bound + 1}) {
      ASSERT_EQ(Histogram::BucketOf(v), SearchedBucket(v)) << v;
    }
  }
  // From the last bound up to UINT64_MAX, in steps of about 1/16.
  for (std::uint64_t v = bounds.back(); v < UINT64_MAX - (v >> 4);
       v += (v >> 4) + 1) {
    ASSERT_EQ(Histogram::BucketOf(v), SearchedBucket(v)) << v;
  }
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), bounds.size() - 1);
}

TEST(HistogramTest, LargeValuesClampedIntoTopBucket) {
  Histogram h;
  h.Add(1ULL << 61);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1ULL << 61);
}

}  // namespace
}  // namespace tdr
