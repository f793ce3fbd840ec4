/**
 * @file
 * §V-E walkthrough as an executable narrative: one texture request
 * flows through every A-TFIM stage in order, and each stage's
 * observable effect is asserted — the closest thing to reading the
 * paper's walkthrough against the implementation.
 */

#include <gtest/gtest.h>

#include "pim/atfim_path.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"
#include "support/reference_sampler.hh"

namespace texpim {
namespace {

TEST(WalkthroughSVE, OneRequestThroughEveryStage)
{
    Texture tex("walk", generateTexture(Material::Marble, 256, 1),
                0x1000'0000);
    HmcMemory hmc{HmcParams{}};
    AtfimParams ap; // default 0.01 pi threshold
    AtfimTexturePath atfim(GpuParams{}, ap, PimPacketParams{}, hmc);

    // "After receiving texture request, a texture unit first
    //  calculates the memory addresses of the requested parent texels
    //  as if anisotropic filtering is disabled."
    TexRequest req;
    req.tex = &tex;
    req.coords.uv = {0.31f, 0.62f};
    req.coords.ddx = {0.03f, 0.0f};   // 6:1 stretch -> N = 8
    req.coords.ddy = {0.0f, 0.005f};
    req.coords.cameraAngle = 1.25f;
    req.mode = FilterMode::Trilinear;
    req.maxAniso = 16;
    req.issue = 100;
    req.wanted = 100;

    DecomposedSampleResult functional;
    sampleDecomposed(tex, req.coords, req.mode, req.maxAniso, functional);
    // Trilinear with aniso off needs 8 parent texels (Fig. 7B).
    ASSERT_EQ(functional.parents.size(), 8u);

    TexResponse resp = processRequest(atfim, req);
    const StatGroup &s = atfim.stats();

    // "Next, it fetches parent texels from the texture caches. ...
    //  Upon a miss, the Offloading Unit packs the parent-texel info
    //  and sent it to the HMC through the transmit links."  (cold: all
    //  8 parents miss, one compacted package)
    EXPECT_EQ(s.findCounter("parents").value(), 8u);
    // Corner parents are Morton-adjacent, so some share a cache line
    // with an already-allocated sibling: misses + line-sharing hits
    // cover all 8, and every missing parent rides the one package.
    u64 misses = s.findCounter("l1_misses").value();
    u64 hits = s.hasCounter("l1_hits") ? s.findCounter("l1_hits").value()
                                       : 0;
    EXPECT_EQ(misses + hits, 8u);
    EXPECT_GE(misses, 4u);
    EXPECT_EQ(s.findCounter("offload_packages").value(), 1u);
    EXPECT_EQ(s.findCounter("parents_offloaded").value(), misses);
    EXPECT_GT(hmc.offChipTraffic().bytes(TrafficClass::PimPackage), 0u);

    // "The Texel Generator calculates the coordinates of child texels
    //  using the packed parent texel information" — N children per
    //  missing parent at its level.
    u64 children = s.findCounter("children_generated").value();
    EXPECT_EQ(children, misses * functional.anisoRatio);

    // "...the Combination Unit, which then merges the child texel
    //  fetches" — consolidation below the raw child count.
    EXPECT_LT(s.findCounter("child_blocks_fetched").value(), children);

    // "After the switch receives child-texel reads, it routs the
    //  memory accesses to the corresponding vaults" — internal, not
    //  off-chip, texel traffic.
    EXPECT_GT(hmc.internalTraffic().bytes(TrafficClass::Texture), 0u);
    EXPECT_EQ(hmc.offChipTraffic().bytes(TrafficClass::Texture), 0u);

    // "Finally ... the requested parent texels are calculated and
    //  sent back to the host GPU for further filtering." — and the
    //  result equals conventional filtering on first touch.
    SampleResult conv;
    sampleConventional(tex, req.coords, req.mode, req.maxAniso, conv);
    EXPECT_NEAR(resp.color.r, conv.color.r, 2e-4f);
    EXPECT_GT(resp.complete, req.issue + 2 * hmc.params().linkLatency);

    // "The texture units ... treats the responded parent texels from
    //  the HMC as normal fetch results ... they also cache the camera
    //  angles of these parent texels." — a re-request at the same
    //  angle is now a pure cache hit.
    TexResponse again = processRequest(atfim, req);
    EXPECT_EQ(s.findCounter("offload_packages").value(), 1u);
    EXPECT_GT(s.findCounter("l1_hits").value(), 0u);
    EXPECT_FLOAT_EQ(again.color.r, resp.color.r);
}

} // namespace
} // namespace texpim
