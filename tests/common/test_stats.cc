#include <gtest/gtest.h>

#include <string>

#include "common/stats.hh"

namespace texpim {
namespace {

TEST(StatCounter, IncrementAndAdd)
{
    StatCounter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatAverage, MeanOverSamples)
{
    StatAverage a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(StatHistogram, BucketsAndSaturation)
{
    StatHistogram h(0.0, 10.0, 5);
    h.sample(0.5);   // bucket 0
    h.sample(3.0);   // bucket 1
    h.sample(9.9);   // bucket 4
    h.sample(-5.0);  // saturates into bucket 0
    h.sample(100.0); // saturates into bucket 4
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 2u);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(StatGroup, RegistrationIsStableAndNamed)
{
    StatGroup g("gpu");
    StatCounter &c1 = g.counter("frags", "fragments");
    c1 += 5;
    // Reading by name finds the registered object for every stat kind.
    EXPECT_EQ(&g.findCounter("frags"), &c1);
    EXPECT_EQ(g.findCounter("frags").value(), 5u);
    EXPECT_TRUE(g.hasCounter("frags"));
    EXPECT_FALSE(g.hasCounter("absent"));
    StatAverage &a = g.average("lat", "latency");
    EXPECT_EQ(&g.findAverage("lat"), &a);
    StatHistogram &h = g.histogram("hist", 0, 1, 2, "latency spread");
    EXPECT_EQ(&g.histograms().at("hist"), &h);
}

TEST(StatGroup, HeldReferencesSurviveResetAll)
{
    // Timing code holds the references registration returns, so a
    // per-frame resetAll() must zero the same objects, not replace them.
    StatGroup g("x");
    StatCounter &c = g.counter("c", "a counter");
    StatAverage &a = g.average("a", "an average");
    StatHistogram &h = g.histogram("h", 0, 1, 2, "a histogram");
    c += 3;
    a.sample(1.0);
    h.sample(0.5);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(h.samples(), 0u);
    ++c;
    a.sample(2.0);
    h.sample(0.25);
    EXPECT_EQ(g.findCounter("c").value(), 1u);
    EXPECT_EQ(g.findAverage("a").count(), 1u);
    EXPECT_EQ(g.histograms().at("h").samples(), 1u);
}

TEST(StatGroup, HeldReferencesSurviveLaterRegistrations)
{
    StatGroup g("x");
    StatCounter &c = g.counter("c", "a counter");
    StatAverage &a = g.average("a", "an average");
    StatHistogram &h = g.histogram("h", 0, 1, 2, "a histogram");
    for (int i = 0; i < 100; ++i) {
        std::string n = std::to_string(i);
        g.counter("c" + n, "filler") += 1;
        g.average("a" + n, "filler").sample(1.0);
        g.histogram("h" + n, 0, 1, 2, "filler").sample(0.5);
    }
    c += 7;
    a.sample(4.0);
    h.sample(0.75);
    EXPECT_EQ(&g.findCounter("c"), &c);
    EXPECT_EQ(&g.findAverage("a"), &a);
    EXPECT_EQ(&g.histograms().at("h"), &h);
    EXPECT_EQ(g.findCounter("c").value(), 7u);
    EXPECT_DOUBLE_EQ(g.findAverage("a").mean(), 4.0);
    EXPECT_EQ(g.histograms().at("h").samples(), 1u);
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup g("x");
    g.counter("c", "a counter") += 3;
    g.average("a", "an average").sample(1.0);
    g.histogram("h", 0, 1, 2, "a histogram").sample(0.5);
    g.resetAll();
    EXPECT_EQ(g.findCounter("c").value(), 0u);
    EXPECT_EQ(g.findAverage("a").count(), 0u);
    EXPECT_EQ(g.histograms().at("h").samples(), 0u);
}

TEST(StatGroupDeath, FindMissingCounterPanics)
{
    StatGroup g("x");
    EXPECT_DEATH({ (void)g.findCounter("nope"); }, "no counter");
}

TEST(StatHistogram, PercentilesOfUniformFill)
{
    StatHistogram h(0.0, 10.0, 10);
    for (unsigned i = 0; i < 10; ++i)
        h.sample(double(i) + 0.5); // one sample per bucket
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 9.5);
    // p99's interpolated 9.9 exceeds the observed max and is clamped.
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 9.5);
    // Everything clamps to the observed range.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.5);
}

TEST(StatHistogram, PercentileInterpolatesWithinBucket)
{
    StatHistogram h(0.0, 100.0, 10);
    for (unsigned i = 0; i < 100; ++i)
        h.sample(15.0); // all 100 samples in bucket [10, 20)
    // target = p*100 samples, all in one bucket of width 10:
    // v = 10 + p*10, clamped to [15, 15] -> always the sampled value.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);
    // Two-bucket split: 50 low, 50 high.
    StatHistogram h2(0.0, 2.0, 2);
    for (unsigned i = 0; i < 50; ++i)
        h2.sample(0.25);
    for (unsigned i = 0; i < 50; ++i)
        h2.sample(1.75);
    // p50 -> target 50, end of bucket 0 -> v = 1.0.
    EXPECT_DOUBLE_EQ(h2.percentile(0.50), 1.0);
    // p95 -> target 95, 45 into bucket 1 of 50 -> v = 1 + 0.9 = 1.9,
    // clamped to max 1.75.
    EXPECT_DOUBLE_EQ(h2.percentile(0.95), 1.75);
}

TEST(StatHistogram, PercentileOfEmptyIsZero)
{
    StatHistogram h(0.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(StatHistogram, ExposesBounds)
{
    StatHistogram h(2.0, 8.0, 3);
    EXPECT_DOUBLE_EQ(h.lo(), 2.0);
    EXPECT_DOUBLE_EQ(h.hi(), 8.0);
    EXPECT_EQ(h.buckets(), 3u);
}

TEST(StatGroup, FindAverageAndHasAverage)
{
    StatGroup g("g");
    g.average("lat", "latency").sample(3.0);
    ASSERT_TRUE(g.hasAverage("lat"));
    EXPECT_FALSE(g.hasAverage("nope"));
    EXPECT_DOUBLE_EQ(g.findAverage("lat").mean(), 3.0);
    EXPECT_EQ(g.findAverage("lat").count(), 1u);
}

TEST(StatGroupDeath, FindMissingAveragePanics)
{
    StatGroup g("g");
    EXPECT_DEATH({ (void)g.findAverage("nope"); }, "no average");
}

TEST(StatGroupDeath, HistogramShapeMismatchPanics)
{
    // A second registration never hands back the first histogram, so
    // later samples cannot land in a silently different shape.
    StatGroup g("g");
    g.histogram("h", 0.0, 10.0, 4, "a histogram");
    EXPECT_DEATH({ (void)g.histogram("h", 0.0, 20.0, 4, "wider"); },
                 "stat 'h' registered twice in group 'g'");
    EXPECT_DEATH({ (void)g.histogram("h", 0.0, 10.0, 8, "finer"); },
                 "stat 'h' registered twice in group 'g'");
}

TEST(StatGroupDeath, RegisteringANameTwicePanics)
{
    // Same kind or another kind: a name belongs to one stat per group.
    StatGroup g("g");
    g.counter("c", "a counter");
    g.average("a", "an average");
    EXPECT_DEATH({ (void)g.counter("c", "a counter"); },
                 "stat 'c' registered twice in group 'g'");
    EXPECT_DEATH({ (void)g.average("a", "an average"); },
                 "stat 'a' registered twice in group 'g'");
    EXPECT_DEATH({ (void)g.histogram("c", 0.0, 1.0, 2, "a histogram"); },
                 "stat 'c' registered twice in group 'g'");
}

TEST(StatGroup, HistogramRefindKeepsShape)
{
    StatGroup g("g");
    StatHistogram &h1 = g.histogram("h", 0.0, 10.0, 4, "a histogram");
    h1.sample(5.0);
    const StatHistogram &h2 = g.histograms().at("h");
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.samples(), 1u);
    EXPECT_DOUBLE_EQ(h2.lo(), 0.0);
    EXPECT_DOUBLE_EQ(h2.hi(), 10.0);
    EXPECT_EQ(h2.buckets(), 4u);
}

TEST(StatGroup, RegistrationRecordsTheDescription)
{
    StatGroup g("g");
    g.counter("c", "counts things");
    g.average("a", "averages things");
    g.histogram("h", 0.0, 1.0, 2, "bins things");
    EXPECT_EQ(g.description("c"), "counts things");
    EXPECT_EQ(g.description("a"), "averages things");
    EXPECT_EQ(g.description("h"), "bins things");
    EXPECT_EQ(g.description("absent"), "");
}

TEST(StatHistogram, PercentileClampsOutOfRangeP)
{
    StatHistogram h(0.0, 10.0, 10);
    h.sample(3.5);
    // One sample: every percentile — including p outside [0, 1],
    // which clamps to the ends — returns the single observed value.
    for (double p : {-1.0, 0.0, 0.5, 1.0, 2.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 3.5) << "p=" << p;
}

TEST(StatHistogram, ResetRestoresTheEmptyContract)
{
    StatHistogram h(0.0, 10.0, 10);
    h.sample(2.5);
    h.sample(7.5);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    // The histogram keeps working after reset: fresh samples define
    // fresh bounds, unpolluted by pre-reset extremes.
    h.sample(9.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 9.5);
    EXPECT_DOUBLE_EQ(h.min(), 9.5);
    EXPECT_DOUBLE_EQ(h.max(), 9.5);
}

TEST(StatHistogram, SaturatedSamplesClampPercentilesToRawExtremes)
{
    // Out-of-bounds samples land in the edge buckets but record their
    // raw values as min/max, which bound every percentile: the
    // interpolated in-bucket value (<= hi) clamps UP to the raw min.
    StatHistogram h(0.0, 10.0, 10);
    for (unsigned i = 0; i < 10; ++i)
        h.sample(100.0); // all saturate into the last bucket
    EXPECT_DOUBLE_EQ(h.min(), 100.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    for (double p : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 100.0) << "p=" << p;
}

} // namespace
} // namespace texpim
