/**
 * @file
 * Parameterized property sweeps over cache geometry: LRU behavior,
 * working-set capacity and angle-threshold monotonicity must hold at
 * every associativity and size the simulator uses.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/tag_cache.hh"
#include "common/rng.hh"

namespace texpim {
namespace {

using GeomParam = std::tuple<u64 /*sizeKB*/, unsigned /*ways*/>;

class CacheGeometry : public testing::TestWithParam<GeomParam>
{
  protected:
    CacheParams
    params() const
    {
        auto [kb, ways] = GetParam();
        CacheParams p;
        p.sizeBytes = kb * 1024;
        p.ways = ways;
        p.lineBytes = 64;
        return p;
    }
};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHits)
{
    CacheParams p = params();
    TagCache c(p);
    u64 lines = p.sizeBytes / p.lineBytes;
    // Touch a working set of exactly the cache capacity twice: the
    // second pass must be all hits (sequential fill never self-evicts
    // under LRU with power-of-two sets).
    for (u64 i = 0; i < lines; ++i)
        EXPECT_EQ(c.access(i * 64), CacheOutcome::Miss);
    u64 hits = 0;
    for (u64 i = 0; i < lines; ++i)
        hits += c.access(i * 64) == CacheOutcome::Hit;
    EXPECT_EQ(hits, lines);
}

TEST_P(CacheGeometry, OversizedWorkingSetThrashes)
{
    CacheParams p = params();
    TagCache c(p);
    u64 lines = 2 * p.sizeBytes / p.lineBytes; // 2x capacity
    // Sequential sweep over 2x capacity under LRU misses everywhere:
    // each line is evicted before the next pass returns to it.
    for (int pass = 0; pass < 2; ++pass)
        for (u64 i = 0; i < lines; ++i)
            EXPECT_EQ(c.access(i * 64), CacheOutcome::Miss)
                << "pass " << pass << " line " << i;
}

TEST_P(CacheGeometry, RandomAccessesNeverCrash)
{
    CacheParams p = params();
    TagCache c(p);
    Rng rng(u64(p.sizeBytes) + p.ways);
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(1u << 22) * 4;
        float angle = float(rng.uniform(0, 1.5));
        c.accessAngled(a, angle, 0.03f);
        // Whatever the outcome, the line is now resident, most
        // recently used and stamped with this angle.
        ASSERT_EQ(c.accessAngled(a, angle, 0.03f), CacheOutcome::Hit)
            << "access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    testing::Combine(testing::Values<u64>(4, 16, 128),
                     testing::Values(4u, 8u, 16u)),
    [](const testing::TestParamInfo<GeomParam> &info) {
        return "kb" + std::to_string(std::get<0>(info.param)) + "_ways" +
               std::to_string(std::get<1>(info.param));
    });

/** Threshold monotonicity as a property over random angle streams. */
class ThresholdMonotonicity : public testing::TestWithParam<u64>
{};

TEST_P(ThresholdMonotonicity, LooserThresholdNeverRecalculatesMore)
{
    Rng rng(GetParam());
    std::vector<std::pair<Addr, float>> stream;
    for (int i = 0; i < 5000; ++i)
        stream.emplace_back(rng.below(256) * 64,
                            float(rng.uniform(0.0, 1.55)));

    u64 prev = ~0ull;
    for (float thr : {0.005f, 0.0157f, 0.0314f, 0.157f, 0.314f}) {
        CacheParams p;
        p.sizeBytes = 16 * 1024;
        p.ways = 16;
        TagCache c(p);
        u64 recalcs = 0;
        for (auto [a, ang] : stream)
            recalcs += c.accessAngled(a, ang, thr) == CacheOutcome::AngleMiss;
        EXPECT_LE(recalcs, prev) << "threshold " << thr;
        prev = recalcs;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdMonotonicity,
                         testing::Values<u64>(1, 17, 2026));

} // namespace
} // namespace texpim
