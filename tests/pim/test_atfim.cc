#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pim/atfim_path.hh"
#include "sim/design.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"
#include "support/reference_sampler.hh"

namespace texpim {
namespace {

struct Fixture
{
    explicit Fixture(float threshold = kDefaultThreshold)
        : tex("tex", generateTexture(Material::Marble, 128, 5), 0x1000'0000),
          hmc(HmcParams{})
    {
        AtfimParams ap;
        ap.angleThresholdRad = threshold;
        atfim = std::make_unique<AtfimTexturePath>(GpuParams{}, ap,
                                                   PimPacketParams{}, hmc);
    }

    static constexpr float kDefaultThreshold = 0.031415927f; // 0.01 pi

    TexRequest
    request(float u, float v, float angle, float du = 0.03f,
            float dv = 0.004f)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {du, 0};
        r.coords.ddy = {0, dv};
        r.coords.cameraAngle = angle;
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        r.clusterId = 0;
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

TEST(Atfim, FirstTouchMatchesConventionalFiltering)
{
    Fixture f;
    SampleResult conv;
    for (int i = 0; i < 40; ++i) {
        // Spread-out uvs so each request's parents are cold.
        TexRequest r = f.request(0.021f * float(i), 0.37f * float(i), 1.1f);
        TexResponse resp = processRequest(*f.atfim, r);
        sampleConventional(f.tex, r.coords, r.mode, r.maxAniso, conv);
        EXPECT_NEAR(resp.color.r, conv.color.r, 2e-4f) << i;
        EXPECT_NEAR(resp.color.g, conv.color.g, 2e-4f) << i;
        EXPECT_NEAR(resp.color.b, conv.color.b, 2e-4f) << i;
    }
}

TEST(Atfim, SameAngleRerequestHitsCaches)
{
    Fixture f;
    TexRequest r = f.request(0.4f, 0.4f, 1.2f);
    processRequest(*f.atfim, r);
    u64 offloads_before = f.counter("offload_packages");
    TexResponse again = processRequest(*f.atfim, r);
    EXPECT_EQ(f.counter("offload_packages"), offloads_before);
    EXPECT_GT(f.counter("l1_hits"), 0u);
    // And reuse is exact for identical footprints.
    SampleResult conv;
    sampleConventional(f.tex, r.coords, r.mode, r.maxAniso, conv);
    EXPECT_NEAR(again.color.r, conv.color.r, 2e-4f);
}

TEST(Atfim, AngleChangePastThresholdForcesRecalculation)
{
    Fixture f;
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.5f));
    u64 offloads_before = f.counter("offload_packages");
    // 10 degrees is far past the 1.8-degree default threshold.
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.5f + 0.1745f));
    EXPECT_GT(f.counter("offload_packages"), offloads_before);
    EXPECT_GT(f.atfim->angleRecalcs(), 0u);
}

TEST(Atfim, AngleChangeWithinThresholdReuses)
{
    Fixture f;
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.5f));
    u64 offloads_before = f.counter("offload_packages");
    // Half a degree: well within 1.8 degrees.
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.5f + 0.0087f));
    EXPECT_EQ(f.counter("offload_packages"), offloads_before);
    EXPECT_EQ(f.atfim->angleRecalcs(), 0u);
}

TEST(Atfim, NeverRecalcConfigIgnoresAngles)
{
    // 0.9 and 1.0 rad differ by ~6 degrees but map to the same
    // anisotropy level (N = 2: 1/cos in [1.5, 2]), so the parent
    // texels coincide; with recalculation disabled the stale values
    // are reused as-is.
    Fixture f(kThresholdNoRecalc);
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.9f));
    u64 offloads_before = f.counter("offload_packages");
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 1.0f));
    EXPECT_EQ(f.counter("offload_packages"), offloads_before);
    EXPECT_EQ(f.atfim->angleRecalcs(), 0u);
}

TEST(Atfim, DefaultThresholdRecalculatesWhatNoRecalcReuses)
{
    // The same 6-degree pair under the default threshold must force
    // recalculation instead.
    Fixture f;
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 0.9f));
    u64 offloads_before = f.counter("offload_packages");
    processRequest(*f.atfim, f.request(0.4f, 0.4f, 1.0f));
    EXPECT_GT(f.counter("offload_packages"), offloads_before);
    EXPECT_GT(f.atfim->angleRecalcs(), 0u);
}

TEST(Atfim, ConsolidationMergesOverlappingChildren)
{
    Fixture f;
    TexRequest r = f.request(0.6f, 0.6f, 1.3f);
    processRequest(*f.atfim, r);
    // Neighboring parents' child sets overlap, so the consolidated
    // block count must be below the raw child count.
    EXPECT_LT(f.counter("child_blocks_fetched"),
              f.counter("children_generated"));
}

TEST(Atfim, ChildBlocksAreTheSampleBlockSlice)
{
    // A sample's child bursts are its slice of ReplayStream::blocks,
    // parent-major and exactly as the decomposed sampler emits them,
    // and the replay fetches that slice.
    Fixture f;
    TexRequest r = f.request(0.6f, 0.6f, 1.3f);
    ReplayStream stream;
    SamplerScratch scratch;
    f.atfim->sampleQuad(r, &r.coords, 1, stream, scratch);
    ASSERT_EQ(stream.samples.size(), 1u);
    const TexSampleRec &rec = stream.samples[0];
    ASSERT_GT(rec.anisoRatio, 1u);
    ASSERT_EQ(rec.blockCount, rec.parentCount * rec.anisoRatio);

    QuadDecompOut want;
    AnisoOffsetCache ocache;
    const Addr mask = ~Addr(AtfimParams{}.childFetchGranularityBytes - 1);
    sampleDecomposedQuad(f.tex, &r.coords, 1, r.mode, r.maxAniso, mask,
                         want, ocache);
    ASSERT_EQ(want.parentCount[0], rec.parentCount);
    ASSERT_EQ(want.anisoRatio[0], rec.anisoRatio);
    std::vector<Addr> slice(stream.blocks.begin() + rec.blockOff,
                            stream.blocks.begin() + rec.blockOff +
                                rec.blockCount);
    EXPECT_EQ(slice, std::vector<Addr>(want.childBlocks[0],
                                       want.childBlocks[0] + rec.blockCount));

    // One-texel cache lines keep the parents from sharing a line, so
    // a cold replay offloads every parent and the consolidated fetch
    // is the slice's distinct bursts.
    GpuParams gp;
    gp.texL1.lineBytes = gp.texL2.lineBytes = kBytesPerTexel;
    AtfimTexturePath cold(gp, AtfimParams{}, PimPacketParams{}, f.hmc);
    cold.recordL1(r.clusterId, r.coords.cameraAngle, stream, 0);
    cold.replay(r, stream, 0);
    const StatGroup &st = cold.stats();
    ASSERT_EQ(st.findCounter("parents_offloaded").value(), rec.parentCount);
    std::sort(slice.begin(), slice.end());
    slice.erase(std::unique(slice.begin(), slice.end()), slice.end());
    EXPECT_EQ(st.findCounter("child_blocks_fetched").value(), slice.size());
}

TEST(Atfim, OffloadTrafficIsPackagesNotTexels)
{
    Fixture f;
    processRequest(*f.atfim, f.request(0.3f, 0.7f, 1.0f));
    EXPECT_GT(f.hmc.offChipTraffic().bytes(TrafficClass::PimPackage), 0u);
    EXPECT_EQ(f.hmc.offChipTraffic().bytes(TrafficClass::Texture), 0u);
    EXPECT_GT(f.hmc.internalTraffic().bytes(TrafficClass::Texture), 0u);
}

TEST(Atfim, StricterThresholdNeverReducesRecalcs)
{
    const float angles[] = {0.50f, 0.53f, 0.58f, 0.52f, 0.61f, 0.50f};
    u64 prev = ~0ull;
    for (float thr : {0.005f * kPiF, 0.01f * kPiF, 0.05f * kPiF}) {
        Fixture f(thr);
        for (float a : angles)
            processRequest(*f.atfim, f.request(0.4f, 0.4f, a));
        u64 recalcs = f.atfim->angleRecalcs();
        EXPECT_LE(recalcs, prev);
        prev = recalcs;
    }
}

TEST(AtfimDeath, EwaModeRejected)
{
    // The Gaussian EWA weights break Eq. (3)'s reorder, so the
    // decomposed kernel refuses the mode (the simulator coerces it to
    // Trilinear before A-TFIM sees a request).
    Fixture f;
    TexRequest r = f.request(0.5f, 0.5f, 1.0f);
    r.mode = FilterMode::TrilinearEwa;
    EXPECT_DEATH({ processRequest(*f.atfim, r); }, "equal-weight");
}

} // namespace
} // namespace texpim
