/**
 * @file
 * End-to-end fault injection and graceful PIM→host degradation: faulty
 * renders must complete, be seed-deterministic, and never change the
 * image relative to a fault-free run of the same design.
 */

#include <gtest/gtest.h>

#include "quality/image_metrics.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

Scene
testScene()
{
    Workload wl{Game::Riddick, 256, 192};
    Scene s = buildGameScene(wl, 3);
    s.settings.maxAniso = 8;
    return s;
}

struct FaultKnobs
{
    double linkBer = 0.0;
    double vaultBer = 0.0;
    u64 seed = 0x5eed;
    Cycle packageTimeout = 0;
    double retryRateThreshold = 0.0;
    /** Pin the functional schedule (gpu.schedule=rr): must
     *  be set on BOTH sides of an image A/B across timing-perturbing
     *  knobs, because the default horizon schedule feeds timing back
     *  into the request order A-TFIM's shared caches see. */
    bool pinned = false;
};

SimResult
run(Design d, const FaultKnobs &k = {})
{
    SimConfig cfg;
    cfg.design = d;
    cfg.hmc.fault.linkBer = k.linkBer;
    cfg.hmc.fault.vaultBer = k.vaultBer;
    cfg.hmc.fault.seed = k.seed;
    cfg.robustness.packageTimeout = k.packageTimeout;
    cfg.robustness.retryRateThreshold = k.retryRateThreshold;
    cfg.robustness.minPackets = 64;
    cfg.gpu.schedule = k.pinned ? GpuParams::Schedule::RoundRobin
                                : GpuParams::Schedule::Horizon;
    RenderingSimulator sim(cfg);
    return sim.renderScene(testScene());
}

TEST(Degradation, DefaultsAreBitIdenticalToFaultFree)
{
    // All fault_* knobs at their defaults must not change a cycle.
    for (Design d : {Design::BPim, Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult plain = run(d);
        SimResult knobs_off = run(d, FaultKnobs{0.0, 0.0, 0x1234, 0, 0.0});
        EXPECT_EQ(plain.frame.frameCycles, knobs_off.frame.frameCycles);
        EXPECT_EQ(plain.textureFilterCycles, knobs_off.textureFilterCycles);
        EXPECT_EQ(imageHash(*plain.image), imageHash(*knobs_off.image));
        EXPECT_EQ(knobs_off.crcErrors, 0u);
        EXPECT_EQ(knobs_off.linkRetries, 0u);
        EXPECT_EQ(knobs_off.pimFallbacks, 0u);
    }
}

TEST(Degradation, FaultyRendersCompleteOnAllHmcDesigns)
{
    FaultKnobs k;
    k.linkBer = 1e-3;
    k.vaultBer = 1e-4;
    for (Design d : {Design::BPim, Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult r = run(d, k);
        EXPECT_GT(r.frame.frameCycles, 1000u);
        EXPECT_GT(r.crcErrors, 0u);
        EXPECT_GT(r.linkRetries, 0u);
        ASSERT_TRUE(r.image);
    }
}

TEST(Degradation, FaultsNeverChangeTheImage)
{
    // Faults and degradation only move *where* work happens and how
    // long it takes; the filtering math is untouched, so each design's
    // image matches its own fault-free run bit for bit.
    FaultKnobs clean_k;
    clean_k.pinned = true;
    FaultKnobs k;
    k.linkBer = 5e-3;
    k.packageTimeout = 2000;
    k.retryRateThreshold = 0.002;
    k.pinned = true;
    for (Design d : {Design::BPim, Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult clean = run(d, clean_k);
        SimResult faulty = run(d, k);
        EXPECT_EQ(differingPixels(*clean.image, *faulty.image), 0u);
        EXPECT_EQ(imageHash(*clean.image), imageHash(*faulty.image));
    }
}

TEST(Degradation, SameSeedSameRun)
{
    FaultKnobs k;
    k.linkBer = 1e-3;
    k.packageTimeout = 3000;
    for (Design d : {Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult a = run(d, k);
        SimResult b = run(d, k);
        EXPECT_EQ(a.frame.frameCycles, b.frame.frameCycles);
        EXPECT_EQ(a.textureFilterCycles, b.textureFilterCycles);
        EXPECT_EQ(a.crcErrors, b.crcErrors);
        EXPECT_EQ(a.linkRetries, b.linkRetries);
        EXPECT_EQ(a.pimFallbacks, b.pimFallbacks);
        EXPECT_EQ(imageHash(*a.image), imageHash(*b.image));
    }
}

TEST(Degradation, DifferentSeedsChangeTheStatsNotTheImage)
{
    FaultKnobs k1, k2;
    k1.linkBer = k2.linkBer = 5e-3;
    k1.seed = 1;
    k2.seed = 2;
    k1.pinned = k2.pinned = true;
    SimResult a = run(Design::STfim, k1);
    SimResult b = run(Design::STfim, k2);
    // Different fault patterns: timing/statistics diverge...
    EXPECT_TRUE(a.frame.frameCycles != b.frame.frameCycles ||
                a.crcErrors != b.crcErrors ||
                a.linkRetries != b.linkRetries);
    // ...but the image never does.
    EXPECT_EQ(imageHash(*a.image), imageHash(*b.image));
}

TEST(Degradation, TightTimeoutForcesFallbacks)
{
    // A package timeout far below the offload round trip degrades
    // requests to host-side filtering — without hanging and without
    // touching the image.
    FaultKnobs clean_k;
    clean_k.pinned = true;
    FaultKnobs k;
    k.packageTimeout = 1;
    k.pinned = true;
    for (Design d : {Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult clean = run(d, clean_k);
        SimResult degraded = run(d, k);
        EXPECT_GT(degraded.pimFallbacks, 0u);
        EXPECT_EQ(differingPixels(*clean.image, *degraded.image), 0u);
    }
}

TEST(Degradation, RetryRateBreakerTripsUnderHeavyFaults)
{
    FaultKnobs k;
    k.linkBer = 0.2; // very noisy links
    k.retryRateThreshold = 0.05;
    for (Design d : {Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimResult r = run(d, k);
        EXPECT_GT(r.pimFallbacks, 0u);
        ASSERT_TRUE(r.image);
    }
}

} // namespace
} // namespace texpim
