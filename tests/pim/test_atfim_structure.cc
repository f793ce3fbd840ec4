/**
 * @file
 * Structural accounting of the A-TFIM logic layer (Fig. 9): package
 * byte formulas vs. measured traffic, child generation vs. the
 * Combination Unit's ops, consolidation effectiveness, and behavior
 * across HMC cube counts.
 */

#include <gtest/gtest.h>

#include "pim/atfim_path.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"

namespace texpim {
namespace {

struct Rig
{
    explicit Rig(unsigned cubes = 1)
        : tex("tex", generateTexture(Material::Stone, 256, 3), 0x1000'0000),
          hmc([&] {
              HmcParams p;
              p.cubes = cubes;
              return p;
          }())
    {
        atfim = std::make_unique<AtfimTexturePath>(
            GpuParams{}, AtfimParams{}, PimPacketParams{}, hmc);
    }

    TexRequest
    request(float u, float v, float angle = 1.2f)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {0.04f, 0};
        r.coords.ddy = {0, 0.005f};
        r.coords.cameraAngle = angle;
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        return r;
    }

    u64
    counter(const char *name) const
    {
        return atfim->stats().hasCounter(name)
                   ? atfim->stats().findCounter(name).value()
                   : 0;
    }

    Texture tex;
    HmcMemory hmc;
    std::unique_ptr<AtfimTexturePath> atfim;
};

TEST(AtfimStructure, GeneratorAndCombinerProcessEveryChild)
{
    Rig rig;
    for (int i = 0; i < 30; ++i)
        processRequest(*rig.atfim, rig.request(0.03f * float(i), 0.61f));
    u64 children = rig.counter("children_generated");
    EXPECT_GT(children, 0u);
    EXPECT_EQ(rig.counter("texel_gen_ops"), children);
    EXPECT_EQ(rig.counter("combine_ops"), children);
}

TEST(AtfimStructure, PackageBytesFollowTheFormula)
{
    // One fully cold request: every parent misses, so the measured
    // package traffic equals request(n) + response(n) exactly.
    Rig rig;
    processRequest(*rig.atfim, rig.request(0.5f, 0.5f));
    u64 n = rig.counter("parents_offloaded");
    ASSERT_GT(n, 0u);
    ASSERT_EQ(rig.counter("offload_packages"), 1u);
    PimPacketParams pkts;
    EXPECT_EQ(rig.hmc.offChipTraffic().bytes(TrafficClass::PimPackage),
              pkts.atfimRequestBytes(unsigned(n)) +
                  pkts.atfimResponseBytes(unsigned(n)));
}

TEST(AtfimStructure, ConsolidationRatioGrowsWithOverlap)
{
    // Neighboring parents share children: with 8 parents of N children
    // each, consolidated blocks must be well below parents x N.
    Rig rig;
    processRequest(*rig.atfim, rig.request(0.25f, 0.25f));
    u64 children = rig.counter("children_generated");
    u64 blocks = rig.counter("child_blocks_fetched");
    EXPECT_LT(blocks * 2, children * 2); // sanity
    EXPECT_LT(blocks, children);         // real merging happened
}

TEST(AtfimStructure, WorksAcrossMultipleCubes)
{
    // Same request stream against 1 and 2 cubes: identical colors and
    // counters (routing must not change functionality).
    Rig one(1), two(2);
    for (int i = 0; i < 20; ++i) {
        TexRequest r1 = one.request(0.04f * float(i), 0.3f);
        TexRequest r2 = two.request(0.04f * float(i), 0.3f);
        TexResponse a = processRequest(*one.atfim, r1);
        TexResponse b = processRequest(*two.atfim, r2);
        EXPECT_FLOAT_EQ(a.color.r, b.color.r) << i;
    }
    EXPECT_EQ(one.counter("parents_offloaded"),
              two.counter("parents_offloaded"));
    EXPECT_EQ(one.hmc.offChipTraffic().totalBytes(),
              two.hmc.offChipTraffic().totalBytes());
}

TEST(AtfimStructure, ResetStatsClearsPathCounters)
{
    Rig rig;
    processRequest(*rig.atfim, rig.request(0.5f, 0.5f));
    EXPECT_GT(rig.atfim->requests(), 0u);
    rig.atfim->resetStats();
    EXPECT_EQ(rig.atfim->requests(), 0u);
    EXPECT_EQ(rig.atfim->latencySum(), 0u);
    EXPECT_EQ(rig.counter("parents"), 0u);
}

TEST(AtfimStructure, BeginFrameKeepsWarmCaches)
{
    Rig rig;
    TexRequest r = rig.request(0.5f, 0.5f);
    processRequest(*rig.atfim, r);
    u64 offloads = rig.counter("offload_packages");
    rig.atfim->beginFrame();
    // The same request after a frame boundary hits the (kept) caches.
    processRequest(*rig.atfim, r);
    EXPECT_EQ(rig.counter("offload_packages"), offloads);
}

} // namespace
} // namespace texpim
