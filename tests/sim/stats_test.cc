/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hh"

namespace
{

using namespace gs::stats;

TEST(Average, TracksMeanMinMax)
{
    Average a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.total(), 15.0);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Average, MinMaxTrackAfterReset)
{
    // The reset sentinels must be the full double range, or samples
    // beyond the old +/-1e300 sentinels would report them instead.
    Average a;
    a.sample(3.0);
    a.reset();
    a.sample(-7.0);
    EXPECT_DOUBLE_EQ(a.min(), -7.0);
    EXPECT_DOUBLE_EQ(a.max(), -7.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0); // underflow -> first bucket
    h.sample(0.5);
    h.sample(9.5);
    h.sample(25.0); // overflow bucket
    EXPECT_EQ(h.buckets().front(), 2u);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_EQ(h.summary().count(), 4u);
}

TEST(Histogram, UpperEdgeLandsInLastRealBucket)
{
    // The range is inclusive at both ends: sampling exactly the
    // upper edge belongs to the last real bucket, not overflow.
    Histogram h(0.0, 10.0, 10);
    h.sample(10.0);
    const auto &b = h.buckets();
    EXPECT_EQ(b.back(), 0u);
    EXPECT_EQ(b[b.size() - 2], 1u);
}

TEST(Histogram, PercentileInterpolatesWithinBuckets)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    // 100 samples, one per 1-wide bucket: pNN sits at bucket NN's
    // upper edge under the inclusive-upper-edge interpolation.
    EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
}

TEST(Histogram, PercentileEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(3.0);
    h.sample(7.0);
    // q clamps: p0 stays at the range floor, p100 reaches the last
    // populated bucket's upper edge.
    EXPECT_GE(h.percentile(0.0), 0.0);
    EXPECT_LE(h.percentile(0.0), 4.0);
    EXPECT_GE(h.percentile(1.0), 7.0);
    EXPECT_LE(h.percentile(1.0), 8.0);
    EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, PercentileOfEmptyIsNaN)
{
    // NaN, not 0: an empty histogram has no percentiles, and a 0
    // would read as a (wrong) measurement downstream.
    Histogram h(0.0, 10.0, 10);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
}

TEST(Histogram, PercentileOverflowInterpolatesToMax)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(50.0);
    h.sample(90.0);
    // Both samples live in the overflow bucket; the tail percentile
    // interpolates between the range's upper edge and the observed
    // max instead of reporting a value the data never reached.
    double p99 = h.percentile(0.99);
    EXPECT_GE(p99, 10.0);
    EXPECT_LE(p99, 90.0);
    EXPECT_NEAR(h.percentile(1.0), 90.0, 1e-9);
}

TEST(Histogram, ResetClearsCountsAndSummary)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(5.0);
    h.reset();
    EXPECT_EQ(h.summary().count(), 0u);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    h.sample(2.0);
    EXPECT_EQ(h.summary().count(), 1u);
}

} // namespace
