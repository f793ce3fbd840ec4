#include <gtest/gtest.h>

#include "quality/image_metrics.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

/** A small but real workload (riddick profile at reduced resolution)
 *  that runs all four designs in well under a second each. */
Scene
testScene()
{
    Workload wl{Game::Riddick, 320, 240};
    Scene s = buildGameScene(wl, 3);
    s.settings.maxAniso = 8;
    return s;
}

SimResult
run(Design d, float threshold = kThreshold001Pi, bool aniso = true)
{
    SimConfig cfg;
    cfg.design = d;
    cfg.atfim.angleThresholdRad = threshold;
    cfg.disableAniso = !aniso;
    RenderingSimulator sim(cfg);
    return sim.renderScene(testScene());
}

TEST(Simulator, AllDesignsRenderSaneFrames)
{
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SimResult r = run(d);
        SCOPED_TRACE(designName(d));
        EXPECT_GT(r.frame.frameCycles, 1000u);
        EXPECT_GT(r.frame.fragmentsShaded, 10'000u);
        EXPECT_GT(r.textureFilterCycles, 0u);
        EXPECT_GT(r.offChipTotalBytes, 0u);
        EXPECT_GT(r.energy.total(), 0.0);
        ASSERT_TRUE(r.image);
    }
}

TEST(Simulator, OffChipBytesEqualSumOfClasses)
{
    SimResult r = run(Design::Baseline);
    u64 sum = 0;
    for (u64 b : r.offChipBytesByClass)
        sum += b;
    EXPECT_EQ(sum, r.offChipTotalBytes);
}

TEST(Simulator, BPimImageIsBitIdenticalToBaseline)
{
    // B-PIM changes only the memory technology; filtering math is
    // untouched, so the output frame must match exactly.
    SimResult base = run(Design::Baseline);
    SimResult bpim = run(Design::BPim);
    EXPECT_EQ(differingPixels(*base.image, *bpim.image), 0u);
}

TEST(Simulator, STfimImageIsBitIdenticalToBaseline)
{
    // S-TFIM moves the texture units into memory; same math, same
    // image (§IV: "without sacrificing image quality").
    SimResult base = run(Design::Baseline);
    SimResult stfim = run(Design::STfim);
    EXPECT_EQ(differingPixels(*base.image, *stfim.image), 0u);
}

TEST(Simulator, ATfimQualityImprovesWithStricterThreshold)
{
    SimResult base = run(Design::Baseline);
    double strict = psnr(*base.image, *run(Design::ATfim,
                                           kThreshold0005Pi).image);
    double loose = psnr(*base.image,
                        *run(Design::ATfim, kThresholdNoRecalc).image);
    EXPECT_GE(strict, loose);
    EXPECT_GT(strict, 45.0); // near-lossless at the strictest setting
}

TEST(Simulator, ATfimRecalcsGrowWithStricterThreshold)
{
    u64 strict = run(Design::ATfim, kThreshold0005Pi).angleRecalcs;
    u64 dflt = run(Design::ATfim, kThreshold001Pi).angleRecalcs;
    u64 none = run(Design::ATfim, kThresholdNoRecalc).angleRecalcs;
    EXPECT_GE(strict, dflt);
    EXPECT_EQ(none, 0u);
}

TEST(Simulator, STfimInflatesTextureTraffic)
{
    // Fig. 12: package traffic blows past the baseline's texel
    // fetches.
    SimResult base = run(Design::Baseline);
    SimResult stfim = run(Design::STfim);
    EXPECT_GT(stfim.textureTrafficBytes, base.textureTrafficBytes);
}

TEST(Simulator, ATfimReducesOffChipTextureTraffic)
{
    SimResult base = run(Design::Baseline);
    SimResult atfim = run(Design::ATfim);
    EXPECT_LT(atfim.textureTrafficBytes, base.textureTrafficBytes);
}

TEST(Simulator, DisablingAnisoCutsTextureWorkAndTraffic)
{
    // The Fig. 4 experiment: anisotropic filtering is the texture
    // bandwidth hog.
    SimResult on = run(Design::Baseline);
    SimResult off = run(Design::Baseline, kThreshold001Pi, false);
    EXPECT_LT(off.textureFilterCycles, on.textureFilterCycles);
    EXPECT_LT(off.textureTrafficBytes, on.textureTrafficBytes);
}

TEST(Simulator, ATfimSpeedsUpTextureFiltering)
{
    SimResult base = run(Design::Baseline);
    SimResult atfim = run(Design::ATfim);
    EXPECT_LT(atfim.textureFilterCycles, base.textureFilterCycles);
}

TEST(Simulator, EnergyFollowsPerformance)
{
    // A-TFIM's energy saving comes mostly from its shorter frames
    // (§VII-C).
    SimResult base = run(Design::Baseline);
    SimResult atfim = run(Design::ATfim);
    if (atfim.frame.frameCycles < base.frame.frameCycles) {
        EXPECT_LT(atfim.energy.total(), base.energy.total());
    }
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimResult a = run(Design::ATfim);
    SimResult b = run(Design::ATfim);
    EXPECT_EQ(a.frame.frameCycles, b.frame.frameCycles);
    EXPECT_EQ(a.offChipTotalBytes, b.offChipTotalBytes);
    EXPECT_EQ(differingPixels(*a.image, *b.image), 0u);
}

TEST(Simulator, ConfigRoundTrip)
{
    Config cfg;
    cfg.set("design", "a-tfim");
    cfg.set("atfim.angle_threshold_rad", "0.1");
    SimConfig sc = SimConfig::fromConfig(cfg);
    EXPECT_EQ(sc.design, Design::ATfim);
    EXPECT_FLOAT_EQ(sc.atfim.angleThresholdRad, 0.1f);
}

TEST(SimulatorDeath, UnknownDesignIsFatal)
{
    Config cfg;
    cfg.set("design", "warp-drive");
    EXPECT_EXIT({ (void)SimConfig::fromConfig(cfg); },
                testing::ExitedWithCode(1), "unknown design");
}

} // namespace
} // namespace texpim
