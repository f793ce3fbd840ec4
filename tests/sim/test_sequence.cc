#include <gtest/gtest.h>

#include "quality/image_metrics.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

const Workload kWl{Game::Riddick, 320, 240};

TEST(Sequence, RendersRequestedFrameCount)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kWl, 3);
    ASSERT_EQ(frames.size(), 3u);
    for (const auto &f : frames) {
        EXPECT_GT(f.frame.frameCycles, 0u);
        ASSERT_TRUE(f.image);
    }
}

TEST(Sequence, CameraMovesSoFramesDiffer)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kWl, 2);
    EXPECT_GT(differingPixels(*frames[0].image, *frames[1].image), 100u);
}

TEST(Sequence, WarmCachesCutTextureTraffic)
{
    // Frame-to-frame texel reuse: frame 1 rendered warm (after frame
    // 0) fetches less texture data off-chip than the same frame
    // rendered cold. (Comparing against frame 0 instead would be
    // confounded by the camera moving to a different working set.)
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator warm_sim(cfg);
    auto frames = warm_sim.renderSequence(kWl, 2);

    RenderingSimulator cold_sim(cfg);
    SimResult cold = cold_sim.renderScene(buildGameScene(kWl, 1));

    // LRU gives no strict guarantee (warm tags can perturb evictions
    // a little), but warm rendering must be in the cold frame's
    // neighborhood, never a blowup.
    u64 warm_tex =
        frames[1].offChipBytesByClass[unsigned(TrafficClass::Texture)];
    u64 cold_tex =
        cold.offChipBytesByClass[unsigned(TrafficClass::Texture)];
    EXPECT_LT(warm_tex, cold_tex + cold_tex / 10);
}

TEST(Sequence, WarmFramesMatchColdRenderingFunctionally)
{
    // Timing state is rewound per frame, but the image of frame N in a
    // sequence must equal frame N rendered cold (caches never change
    // values for the exact designs).
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator seq_sim(cfg);
    auto frames = seq_sim.renderSequence(kWl, 2);

    RenderingSimulator cold(cfg);
    SimResult f1 = cold.renderScene(buildGameScene(kWl, 1));
    EXPECT_EQ(differingPixels(*frames[1].image, *f1.image), 0u);
}

TEST(Sequence, ATfimInterFrameAngleChangesForceRecalcs)
{
    // SV-C's motivating case: "parent texels from different frames
    // have the same fetching address but different camera angles".
    // With warm caches, later frames' recalculations are exactly the
    // inter-frame angle drift.
    SimConfig cfg;
    cfg.design = Design::ATfim;
    cfg.atfim.angleThresholdRad = kThreshold0005Pi; // strict: catch drift
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kWl, 3);
    EXPECT_GT(frames[1].angleRecalcs, 0u);
    EXPECT_GT(frames[2].angleRecalcs, 0u);
}

TEST(Sequence, ATfimNoRecalcNeverRecalculatesAcrossFrames)
{
    SimConfig cfg;
    cfg.design = Design::ATfim;
    cfg.atfim.angleThresholdRad = kThresholdNoRecalc;
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kWl, 3);
    for (const auto &f : frames)
        EXPECT_EQ(f.angleRecalcs, 0u);
}

TEST(Sequence, PerFrameTrafficIsAccountedSeparately)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kWl, 2);
    // Each frame reports its own traffic, not a running total: frame 1
    // (warm) must be below 1.5x of the cold frame's bytes.
    EXPECT_LT(frames[1].offChipTotalBytes,
              frames[0].offChipTotalBytes * 3 / 2);
    EXPECT_GT(frames[1].offChipTotalBytes, 0u);
}

TEST(SequenceDeath, EmptySequencePanics)
{
    SimConfig cfg;
    RenderingSimulator sim(cfg);
    EXPECT_DEATH({ sim.renderSequence(kWl, 0); }, "empty sequence");
}

} // namespace
} // namespace texpim
