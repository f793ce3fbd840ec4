#include <gtest/gtest.h>

#include "gpu/host_texture_path.hh"
#include "mem/gddr5.hh"
#include "mem/hmc.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"
#include "support/reference_sampler.hh"

namespace texpim {
namespace {

struct Fixture
{
    Fixture()
        : tex("tex", generateTexture(Material::Bricks, 128, 9), 0x1000'0000),
          mem(Gddr5Params{}), path(GpuParams{}, mem)
    {}

    TexRequest
    request(float u, float v, unsigned cluster = 0, Cycle issue = 0)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {0.02f, 0};
        r.coords.ddy = {0, 0.02f};
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        r.clusterId = cluster;
        r.issue = issue;
        r.wanted = issue;
        return r;
    }

    Texture tex;
    Gddr5Memory mem;
    HostTexturePath path;
};

TEST(HostTexturePath, ColorMatchesFunctionalSampler)
{
    Fixture f;
    TexRequest r = f.request(0.3f, 0.6f);
    TexResponse resp = processRequest(f.path, r);
    SampleResult conv;
    sampleConventional(f.tex, r.coords, r.mode, r.maxAniso, conv);
    EXPECT_FLOAT_EQ(resp.color.r, conv.color.r);
    EXPECT_FLOAT_EQ(resp.color.b, conv.color.b);
}

TEST(HostTexturePath, ColdMissesThenWarmHits)
{
    Fixture f;
    processRequest(f.path, f.request(0.5f, 0.5f));
    u64 cold_misses = f.path.stats().findCounter("l1_misses").value();
    EXPECT_GT(cold_misses, 0u);
    processRequest(f.path, f.request(0.5f, 0.5f));
    // Identical request: all lines now resident in L1.
    EXPECT_EQ(f.path.stats().findCounter("l1_misses").value(), cold_misses);
}

TEST(HostTexturePath, WarmRequestsCompleteFaster)
{
    Fixture f;
    TexResponse cold = processRequest(f.path, f.request(0.5f, 0.5f, 0, 0));
    Cycle cold_latency = cold.complete;
    TexResponse warm = processRequest(f.path, f.request(0.5f, 0.5f, 0, 10'000));
    EXPECT_LT(warm.complete - 10'000, cold_latency);
}

TEST(HostTexturePath, PerClusterL1sAreIndependent)
{
    Fixture f;
    processRequest(f.path, f.request(0.5f, 0.5f, 0));
    u64 l2_after_first = f.path.stats().findCounter("l2_misses").value();
    // Another cluster touching the same texels misses its own L1 but
    // hits the shared L2.
    processRequest(f.path, f.request(0.5f, 0.5f, 1, 10'000));
    EXPECT_EQ(f.path.stats().findCounter("l2_misses").value(),
              l2_after_first);
    EXPECT_GT(f.path.stats().findCounter("l2_hits").value(), 0u);
}

TEST(HostTexturePath, MemoryTrafficOnlyOnMisses)
{
    Fixture f;
    processRequest(f.path, f.request(0.25f, 0.25f));
    u64 bytes_cold = f.mem.offChipTraffic().bytes(TrafficClass::Texture);
    EXPECT_GT(bytes_cold, 0u);
    processRequest(f.path, f.request(0.25f, 0.25f, 0, 50'000));
    EXPECT_EQ(f.mem.offChipTraffic().bytes(TrafficClass::Texture),
              bytes_cold);
}

TEST(HostTexturePath, HigherAnisoFetchesMoreTexels)
{
    Fixture f;
    TexRequest iso = f.request(0.7f, 0.7f);
    processRequest(f.path, iso);
    u64 texels_iso = f.path.stats().findCounter("texels").value();

    TexRequest aniso = f.request(0.2f, 0.2f);
    aniso.coords.ddx = {0.08f, 0}; // 8:1 stretched footprint
    aniso.coords.ddy = {0, 0.01f};
    processRequest(f.path, aniso);
    u64 texels_total = f.path.stats().findCounter("texels").value();
    EXPECT_GT(texels_total - texels_iso, texels_iso);
}

TEST(HostTexturePath, MshrMergesRefetchOfInFlightLine)
{
    // Shrink L2 to one set so a line can be evicted from the tags
    // while its fill is still outstanding; re-requesting it then
    // merges onto the in-flight fill instead of refetching.
    Texture tex("t", generateTexture(Material::Bricks, 256, 9),
                0x1000'0000);
    GpuParams gp;
    gp.texL2.sizeBytes = 1024; // 16 lines, one 16-way set
    Gddr5Memory mem{Gddr5Params{}};
    HostTexturePath path(gp, mem);

    auto make = [&](float u, float v, unsigned cluster) {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {0.02f, 0};
        r.coords.ddy = {0, 0.02f};
        r.clusterId = cluster;
        return r;
    };

    processRequest(path, make(0.1f, 0.1f, 0));
    // Flood the single L2 set from another cluster to evict the
    // first request's lines while their fills are still in flight.
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j)
            processRequest(path, make(0.3f + 0.1f * float(i),
                                      0.3f + 0.1f * float(j), 1));
    // Refetch the original texels at the original (early) time.
    processRequest(path, make(0.1f, 0.1f, 2));
    EXPECT_GT(path.stats().findCounter("mshr_merges").value(), 0u);
}

TEST(HostTexturePath, WorksOverHmcToo)
{
    // The same path serves B-PIM by swapping the memory system.
    Texture tex("t", generateTexture(Material::Wood, 64, 2), 0x1000'0000);
    HmcMemory hmc{HmcParams{}};
    HostTexturePath path(GpuParams{}, hmc);
    TexRequest r;
    r.tex = &tex;
    r.coords.uv = {0.4f, 0.4f};
    r.coords.ddx = {0.02f, 0};
    r.coords.ddy = {0, 0.02f};
    TexResponse resp = processRequest(path, r);
    EXPECT_GT(resp.complete, 0u);
    EXPECT_GT(hmc.offChipTraffic().bytes(TrafficClass::Texture), 0u);
}

TEST(HostTexturePathDeath, NullTexturePanics)
{
    Fixture f;
    TexRequest r = f.request(0.1f, 0.1f);
    r.tex = nullptr;
    EXPECT_DEATH({ processRequest(f.path, r); }, "without texture");
}

} // namespace
} // namespace texpim
