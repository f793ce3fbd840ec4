#include <gtest/gtest.h>

#include "gpu/host_texture_path.hh"
#include "mem/gddr5.hh"
#include "pim/stfim_path.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"
#include "support/reference_sampler.hh"

namespace texpim {
namespace {

struct Fixture
{
    Fixture()
        : tex("tex", generateTexture(Material::Marble, 128, 5), 0x1000'0000),
          hmc(HmcParams{}),
          stfim(GpuParams{}, MtuParams{}, PimPacketParams{}, hmc)
    {}

    TexRequest
    request(float u, float v, float du, float dv, Cycle issue = 0)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {du, 0};
        r.coords.ddy = {0, dv};
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        r.clusterId = 0;
        r.issue = issue;
        r.wanted = issue;
        return r;
    }

    Texture tex;
    HmcMemory hmc;
    StfimTexturePath stfim;
};

TEST(Stfim, FunctionalColorMatchesConventional)
{
    // S-TFIM moves computation into memory; the math is unchanged, so
    // its color must equal the conventional sampler's bit for bit.
    Fixture f;
    SampleResult conv;
    for (int i = 0; i < 50; ++i) {
        float u = 0.017f * float(i);
        TexRequest r = f.request(u, 0.3f, 0.03f, 0.004f);
        TexResponse resp = processRequest(f.stfim, r);
        sampleConventional(f.tex, r.coords, r.mode, r.maxAniso, conv);
        EXPECT_FLOAT_EQ(resp.color.r, conv.color.r) << i;
        EXPECT_FLOAT_EQ(resp.color.g, conv.color.g) << i;
    }
}

TEST(Stfim, EveryRequestShipsPackages)
{
    Fixture f;
    for (int i = 0; i < 10; ++i)
        processRequest(f.stfim,
                       f.request(0.01f * float(i), 0.5f, 0.02f, 0.02f));
    EXPECT_EQ(f.stfim.stats().findCounter("packages").value(), 20u);
    EXPECT_GT(f.hmc.offChipTraffic().bytes(TrafficClass::PimPackage), 0u);
    // No host texture reads at all: texels move only inside the cube.
    EXPECT_EQ(f.hmc.offChipTraffic().bytes(TrafficClass::Texture), 0u);
    EXPECT_GT(f.hmc.internalTraffic().bytes(TrafficClass::Texture), 0u);
}

TEST(Stfim, LatencyIncludesRoundTrip)
{
    Fixture f;
    TexRequest r = f.request(0.4f, 0.4f, 0.02f, 0.02f, 1000);
    TexResponse resp = processRequest(f.stfim, r);
    // At least two link crossings plus memory time.
    EXPECT_GT(resp.complete, r.issue + 2 * f.hmc.params().linkLatency);
}

TEST(Stfim, NoCacheMeansRepeatedTrafficForSameTexels)
{
    Fixture f;
    TexRequest r = f.request(0.25f, 0.25f, 0.02f, 0.02f);
    processRequest(f.stfim, r);
    u64 after_one = f.hmc.internalTraffic().totalBytes();
    processRequest(f.stfim, r);
    u64 after_two = f.hmc.internalTraffic().totalBytes();
    // The identical request refetches everything: no reuse anywhere.
    EXPECT_EQ(after_two, 2 * after_one);
}

TEST(Stfim, QueueBackpressureKicksInUnderBurst)
{
    Fixture f;
    // Fire far more requests at cycle 0 than the 256-entry queue
    // holds; later sends must stall.
    for (int i = 0; i < 600; ++i)
        processRequest(f.stfim,
                       f.request(0.001f * float(i), 0.7f, 0.03f, 0.004f));
    EXPECT_GT(f.stfim.stats().findCounter("queue_stalls").value(), 0u);
}

TEST(Stfim, LatencySumMatchesRecordedRequests)
{
    Fixture f;
    processRequest(f.stfim, f.request(0.1f, 0.1f, 0.02f, 0.02f));
    processRequest(f.stfim, f.request(0.2f, 0.2f, 0.02f, 0.02f));
    EXPECT_EQ(f.stfim.requests(), 2u);
    EXPECT_GT(f.stfim.latencySum(), 0u);
}

} // namespace
} // namespace texpim
