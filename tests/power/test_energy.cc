#include <gtest/gtest.h>

#include "power/energy_model.hh"

namespace texpim {
namespace {

EnergyInputs
baseInputs()
{
    EnergyInputs in;
    in.frameCycles = 1'000'000;
    in.shaderAluOps = 5'000'000;
    in.texAluOps = 10'000'000;
    in.l1Accesses = 3'000'000;
    in.l2Accesses = 400'000;
    in.ropCacheAccesses = 600'000;
    in.offChipBytes = 20'000'000;
    in.dramBytes = 20'000'000;
    in.rowActivates = 100'000;
    in.usesHmc = false;
    return in;
}

TEST(Energy, ComponentsArePositiveAndSum)
{
    EnergyParams p;
    EnergyBreakdown e = estimateEnergy(p, baseInputs());
    EXPECT_GT(e.shaderJ, 0.0);
    EXPECT_GT(e.textureJ, 0.0);
    EXPECT_GT(e.cacheJ, 0.0);
    EXPECT_GT(e.memoryJ, 0.0);
    EXPECT_GT(e.backgroundJ, 0.0);
    EXPECT_GT(e.leakageJ, 0.0);
    EXPECT_NEAR(e.total(),
                e.shaderJ + e.textureJ + e.cacheJ + e.memoryJ +
                    e.backgroundJ + e.leakageJ,
                1e-12);
}

TEST(Energy, LeakageIsTenPercentOfDynamic)
{
    EnergyParams p;
    EnergyBreakdown e = estimateEnergy(p, baseInputs());
    double dynamic = e.total() - e.leakageJ;
    EXPECT_NEAR(e.leakageJ, 0.10 * dynamic, 1e-12);
}

TEST(Energy, FasterFrameCostsLessBackground)
{
    EnergyParams p;
    EnergyInputs slow = baseInputs();
    EnergyInputs fast = baseInputs();
    fast.frameCycles = slow.frameCycles / 2;
    EnergyBreakdown es = estimateEnergy(p, slow);
    EnergyBreakdown ef = estimateEnergy(p, fast);
    EXPECT_NEAR(ef.backgroundJ, es.backgroundJ / 2.0, 1e-12);
    EXPECT_LT(ef.total(), es.total());
}

TEST(Energy, HmcTrafficIsCheaperPerBitThanGddr5)
{
    // §VII-C: "HMC is more energy efficient than GDDR5".
    EnergyParams p;
    EnergyInputs g = baseInputs();
    EnergyInputs h = baseInputs();
    h.usesHmc = true;
    EnergyBreakdown eg = estimateEnergy(p, g);
    EnergyBreakdown eh = estimateEnergy(p, h);
    EXPECT_LT(eh.memoryJ, eg.memoryJ);
}

TEST(Energy, PaperCoefficientsAreDefaults)
{
    EnergyParams p;
    EXPECT_DOUBLE_EQ(p.hmcLinkJPerBit, 5e-12); // §VI: 5 pJ/bit links
    EXPECT_DOUBLE_EQ(p.hmcDramJPerBit, 4e-12); // §VI: 4 pJ/bit DRAM
    EXPECT_DOUBLE_EQ(p.leakageFraction, 0.10); // §VI: +10% leakage
}

} // namespace
} // namespace texpim
