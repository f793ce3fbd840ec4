#include <gtest/gtest.h>

#include <cmath>

#include "cache/tag_cache.hh"

namespace texpim {
namespace {

constexpr float kPi = 3.14159265358979f;

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.ways = 4;         // 4 sets
    p.lineBytes = 64;
    return p;
}

TEST(TagCache, MissThenHit)
{
    TagCache c(smallCache());
    EXPECT_EQ(c.access(0x100), CacheOutcome::Miss);
    EXPECT_EQ(c.access(0x100), CacheOutcome::Hit);
    EXPECT_EQ(c.access(0x13f), CacheOutcome::Hit); // same 64 B line
    EXPECT_EQ(c.access(0x140), CacheOutcome::Miss); // next line
}

TEST(TagCache, LruEviction)
{
    CacheParams p = smallCache();
    TagCache c(p);
    // 4 sets -> addresses with the same (addr/64)%4 collide.
    // Set 0: lines at 0, 256, 512, ... (stride 256).
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(i * 256), CacheOutcome::Miss);
    // Touch line 0 so line 256 becomes LRU.
    EXPECT_EQ(c.access(0), CacheOutcome::Hit);
    // A 5th line evicts the LRU (256), not 0.
    EXPECT_EQ(c.access(4 * 256), CacheOutcome::Miss);
    EXPECT_EQ(c.access(0), CacheOutcome::Hit);
    EXPECT_EQ(c.access(256), CacheOutcome::Miss);
}

TEST(TagCache, InvalidateAllForcesMisses)
{
    TagCache c(smallCache());
    for (Addr i = 0; i < 4; ++i) // fill set 0
        c.access(i * 256);
    c.invalidateAll();
    EXPECT_EQ(c.access(0x0), CacheOutcome::Miss);
    // The emptied ways fill before any refilled line is evicted, so the
    // four lines just brought back all stay resident.
    for (Addr i = 1; i < 4; ++i)
        EXPECT_EQ(c.access(i * 256), CacheOutcome::Miss);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(i * 256), CacheOutcome::Hit);
}

TEST(TagCache, AngleWithinThresholdHits)
{
    TagCache c(smallCache());
    float thresh = 0.01f * kPi; // paper default: 1.8 degrees
    EXPECT_EQ(c.accessAngled(0x0, 0.5f, thresh), CacheOutcome::Miss);
    // Same angle: hit.
    EXPECT_EQ(c.accessAngled(0x0, 0.5f, thresh), CacheOutcome::Hit);
    // 1 degree away: within 1.8-degree threshold.
    EXPECT_EQ(c.accessAngled(0x0, 0.5f + 1.0f * kPi / 180.0f, thresh),
              CacheOutcome::Hit);
}

TEST(TagCache, AnglePastThresholdRecalculates)
{
    TagCache c(smallCache());
    float thresh = 0.01f * kPi;
    c.accessAngled(0x0, 0.2f, thresh);
    // 10 degrees away: past the 1.8-degree threshold.
    float far = 0.2f + 10.0f * kPi / 180.0f;
    EXPECT_EQ(c.accessAngled(0x0, far, thresh), CacheOutcome::AngleMiss);
    // The stored angle was refreshed, so repeating the access hits.
    EXPECT_EQ(c.accessAngled(0x0, far, thresh), CacheOutcome::Hit);
}

TEST(TagCache, AngleExactlyAtThresholdStillHits)
{
    // The reuse test is `diff <= threshold` (tag_cache.cc): a camera
    // that moved by *exactly* the threshold still reuses the cached
    // texel. Build the threshold from the same dequantized values the
    // cache compares so the boundary is exact in float.
    TagCache c(smallCache());
    u8 base_code = quantizeAngle(0.3f);
    u8 far_code = u8(base_code + 5); // 5 degrees away after quantization
    float base = dequantizeAngle(base_code);
    float far = dequantizeAngle(far_code);
    float thresh = far - base;

    c.accessAngled(0x0, base, thresh);
    EXPECT_EQ(c.accessAngled(0x0, far, thresh), CacheOutcome::Hit);

    // One representable float below the threshold: recalculation.
    TagCache c2(smallCache());
    float tighter = std::nextafterf(thresh, 0.0f);
    c2.accessAngled(0x0, base, tighter);
    EXPECT_EQ(c2.accessAngled(0x0, far, tighter), CacheOutcome::AngleMiss);
}

TEST(TagCache, SubQuantumAngleChangeIsInvisible)
{
    // Angles quantize to 1-degree codes before comparison, so a move
    // smaller than half a degree cannot trigger recalculation even at
    // threshold zero.
    TagCache c(smallCache());
    float quarter_deg = 0.25f * kPi / 180.0f;
    c.accessAngled(0x0, 0.5f, 0.0f);
    EXPECT_EQ(quantizeAngle(0.5f), quantizeAngle(0.5f + quarter_deg));
    EXPECT_EQ(c.accessAngled(0x0, 0.5f + quarter_deg, 0.0f),
              CacheOutcome::Hit);
}

TEST(TagCache, AngleMissKeepsTheLineResident)
{
    // An angle miss is a tag hit: the texel stays cached (only its
    // angle is refreshed), no victim is chosen, and the line becomes
    // the most recently used.
    TagCache c(smallCache());
    float thresh = 0.01f * kPi;
    for (Addr i = 0; i < 4; ++i) // fill set 0; 0x0 is the LRU line
        c.accessAngled(i * 256, 0.2f, thresh);
    EXPECT_EQ(c.accessAngled(0x0, 1.2f, thresh), CacheOutcome::AngleMiss);
    // The angle miss touched 0x0, so a fifth line evicts 256 instead.
    EXPECT_EQ(c.accessAngled(4 * 256, 0.2f, thresh), CacheOutcome::Miss);
    EXPECT_EQ(c.accessAngled(0x0, 1.2f, thresh), CacheOutcome::Hit);
    EXPECT_EQ(c.accessAngled(2 * 256, 0.2f, thresh), CacheOutcome::Hit);
    EXPECT_EQ(c.accessAngled(3 * 256, 0.2f, thresh), CacheOutcome::Hit);
    EXPECT_EQ(c.accessAngled(256, 0.2f, thresh), CacheOutcome::Miss);
}

TEST(TagCache, AngleMissRefreshesToTheNewAngleNotAnAverage)
{
    // After recalculation the stored angle is the *new* camera angle:
    // returning to the old angle now misses the threshold again.
    TagCache c(smallCache());
    float thresh = 0.01f * kPi;
    float a0 = 0.2f, a1 = 1.2f;
    c.accessAngled(0x0, a0, thresh);
    EXPECT_EQ(c.accessAngled(0x0, a1, thresh), CacheOutcome::AngleMiss);
    EXPECT_EQ(c.accessAngled(0x0, a0, thresh), CacheOutcome::AngleMiss);
}

TEST(TagCache, EvictionDropsTheStoredAngle)
{
    // Once the line is evicted, re-access is a plain (capacity) miss
    // regardless of angle history.
    CacheParams p = smallCache();
    TagCache c(p);
    float thresh = 0.01f * kPi;
    c.accessAngled(0x0, 0.2f, thresh);
    for (Addr i = 1; i <= 4; ++i) // same set, stride 256: evicts 0x0
        c.accessAngled(i * 256, 0.2f, thresh);
    EXPECT_EQ(c.accessAngled(0x0, 0.2f, thresh), CacheOutcome::Miss);
    // The refill stored the new angle, not the evicted line's.
    EXPECT_EQ(c.accessAngled(0x0, 1.2f, thresh), CacheOutcome::AngleMiss);
}

TEST(TagCache, NegativeThresholdNeverRecalculates)
{
    // The paper's A-TFIM-no configuration: reuse regardless of angle.
    TagCache c(smallCache());
    c.accessAngled(0x0, 0.0f, -1.0f);
    EXPECT_EQ(c.accessAngled(0x0, 1.5f, -1.0f), CacheOutcome::Hit);
    EXPECT_EQ(c.accessAngled(0x0, 0.7f, -1.0f), CacheOutcome::Hit);
}

TEST(TagCache, LargerThresholdNeverRecalculatesMore)
{
    // Property: recalculation count is monotonically non-increasing in
    // the threshold.
    const float angles[] = {0.1f, 0.15f, 0.5f, 0.52f, 1.2f, 0.11f, 0.5f};
    u64 prev_recalcs = ~0ull;
    for (float thresh : {0.005f * kPi, 0.01f * kPi, 0.05f * kPi, 0.1f * kPi}) {
        TagCache c(smallCache());
        u64 recalcs = 0;
        for (float a : angles)
            recalcs += c.accessAngled(0x0, a, thresh) ==
                       CacheOutcome::AngleMiss;
        EXPECT_LE(recalcs, prev_recalcs);
        prev_recalcs = recalcs;
    }
}

TEST(AngleQuantization, OneDegreeResolution)
{
    float deg = kPi / 180.0f;
    EXPECT_EQ(quantizeAngle(0.0f), 0);
    EXPECT_EQ(quantizeAngle(10.0f * deg), 10);
    EXPECT_EQ(quantizeAngle(89.6f * deg), 90);
    // 7-bit clamp.
    EXPECT_LE(quantizeAngle(179.0f * deg), 127);
    // Round trip within half a degree for in-range codes.
    for (int d = 0; d < 128; d += 13) {
        float rad = dequantizeAngle(u8(d));
        EXPECT_EQ(quantizeAngle(rad), d);
    }
}

TEST(TagCacheDeath, NonPowerOfTwoGeometryPanics)
{
    CacheParams p;
    p.sizeBytes = 1000; // not a power-of-two line multiple
    p.ways = 3;
    p.lineBytes = 64;
    EXPECT_DEATH({ TagCache c(p); }, "power of two");
}

} // namespace
} // namespace texpim
