/**
 * @file
 * Unit tests for statistics containers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace sbulk
{
namespace
{

TEST(Scalar, IncrementAndReset)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(4);
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Distribution, ExactMeanMinMax)
{
    Distribution d(10, 8);
    d.sample(5);
    d.sample(15);
    d.sample(100);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 40.0);
    EXPECT_EQ(d.min(), 5u);
    EXPECT_EQ(d.max(), 100u);
}

TEST(Distribution, BucketsFillCorrectly)
{
    Distribution d(10, 4); // buckets [0,10) [10,20) [20,30) [30,40) +ovf
    d.sample(0);
    d.sample(9);
    d.sample(10);
    d.sample(39);
    d.sample(1000); // overflow
    const auto& b = d.buckets();
    EXPECT_EQ(b[0], 2u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 0u);
    EXPECT_EQ(b[3], 1u);
    EXPECT_EQ(b[4], 1u); // overflow bucket
}

TEST(Distribution, PercentileAtBucketResolution)
{
    Distribution d(10, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        d.sample(v);
    // p50 should land around value 50 (bucket edges are multiples of 10).
    std::uint64_t p50 = d.percentile(0.5);
    EXPECT_GE(p50, 40u);
    EXPECT_LE(p50, 60u);
    std::uint64_t p100 = d.percentile(1.0);
    EXPECT_GE(p100, 99u);
}

TEST(Distribution, PercentileNeverAboveMax)
{
    // Every sample sits low in one 25-wide bucket: its upper edge (100)
    // is above every sample, so percentiles read the maximum instead.
    Distribution d(25, 400);
    for (std::uint64_t v : {76u, 77u, 79u})
        d.sample(v);
    EXPECT_EQ(d.percentile(0.5), 79u);
    EXPECT_EQ(d.percentile(0.99), 79u);
    EXPECT_LE(d.percentile(1.0), d.max());
}

TEST(Distribution, PercentileInOverflowReadsMax)
{
    // The overflow bucket has no upper edge: a percentile landing there
    // is the maximum, not the overflow bucket's lower edge.
    Distribution d(10, 4);
    for (std::uint64_t v = 0; v < 5; ++v)
        d.sample(v);
    for (std::uint64_t v : {500u, 900u, 1234u, 800u, 700u})
        d.sample(v);
    EXPECT_EQ(d.percentile(0.9), 1234u);
    EXPECT_EQ(d.percentile(0.5), 10u); // still a regular bucket edge
}

TEST(Distribution, ZeroSamplesAreSafe)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.percentile(0.9), 0u);
}

TEST(StatSet, RecordAndGet)
{
    StatSet set;
    set.record("cycles", 123.0);
    EXPECT_TRUE(set.has("cycles"));
    EXPECT_FALSE(set.has("nope"));
    EXPECT_DOUBLE_EQ(set.get("cycles"), 123.0);
}

TEST(StatSet, RecordsDistributionSummary)
{
    StatSet set;
    Distribution d(1, 16);
    d.sample(3);
    d.sample(5);
    set.record("lat", d);
    EXPECT_DOUBLE_EQ(set.get("lat.mean"), 4.0);
    EXPECT_DOUBLE_EQ(set.get("lat.count"), 2.0);
    EXPECT_DOUBLE_EQ(set.get("lat.max"), 5.0);
}

TEST(StatSet, DumpIsSortedByName)
{
    StatSet set;
    set.record("b", 2);
    set.record("a", 1);
    std::ostringstream os;
    set.dump(os);
    EXPECT_EQ(os.str(), "a = 1\nb = 2\n");
}

} // namespace
} // namespace sbulk
