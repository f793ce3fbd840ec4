/**
 * @file
 * The TexturePath contract, enforced uniformly across all three
 * implementations: responses complete after issue, colors agree with
 * the functional sampler (exactly for the exact paths, closely for
 * A-TFIM), latency accounting is consistent, and timing is monotone
 * under repeated identical requests.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "gpu/host_texture_path.hh"
#include "mem/gddr5.hh"
#include "pim/atfim_path.hh"
#include "pim/stfim_path.hh"
#include "scene/procedural_texture.hh"
#include "support/process_request.hh"
#include "support/reference_sampler.hh"

namespace texpim {
namespace {

enum class PathKind { HostGddr5, HostHmc, Stfim, Atfim };

struct Harness
{
    explicit Harness(PathKind kind)
        : tex("tex", generateTexture(Material::Bricks, 256, 4), 0x1000'0000)
    {
        switch (kind) {
          case PathKind::HostGddr5:
            gddr5 = std::make_unique<Gddr5Memory>(Gddr5Params{});
            path = std::make_unique<HostTexturePath>(GpuParams{}, *gddr5);
            break;
          case PathKind::HostHmc:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<HostTexturePath>(GpuParams{}, *hmc);
            break;
          case PathKind::Stfim:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<StfimTexturePath>(
                GpuParams{}, MtuParams{}, PimPacketParams{}, *hmc);
            break;
          case PathKind::Atfim:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<AtfimTexturePath>(
                GpuParams{}, AtfimParams{}, PimPacketParams{}, *hmc);
            break;
        }
    }

    TexRequest
    request(float u, float v, Cycle issue)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {0.02f, 0.001f};
        r.coords.ddy = {0.0f, 0.006f};
        r.coords.cameraAngle = 1.0f;
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        r.issue = issue;
        r.wanted = issue;
        return r;
    }

    Texture tex;
    std::unique_ptr<Gddr5Memory> gddr5;
    std::unique_ptr<HmcMemory> hmc;
    std::unique_ptr<TexturePath> path;
};

class PathContract : public testing::TestWithParam<PathKind>
{};

TEST_P(PathContract, CompletionNeverPrecedesIssue)
{
    Harness h(GetParam());
    Cycle t = 1000;
    for (int i = 0; i < 50; ++i) {
        TexRequest r = h.request(0.019f * float(i), 0.4f, t);
        TexResponse resp = processRequest(*h.path, r);
        EXPECT_GE(resp.complete, r.issue) << i;
        t = resp.complete; // chain: monotone requests
    }
}

TEST_P(PathContract, ColorTracksFunctionalSampler)
{
    Harness h(GetParam());
    SampleResult conv;
    for (int i = 0; i < 50; ++i) {
        TexRequest r = h.request(0.017f * float(i), 0.73f, 0);
        TexResponse resp = processRequest(*h.path, r);
        sampleConventional(h.tex, r.coords, r.mode, r.maxAniso, conv);
        // Exact paths match bit for bit; A-TFIM within the
        // decomposition's float-rounding band on first touch.
        EXPECT_NEAR(resp.color.r, conv.color.r, 2e-4f) << i;
        EXPECT_NEAR(resp.color.g, conv.color.g, 2e-4f) << i;
    }
}

TEST_P(PathContract, LatencyAccountingIsConsistent)
{
    Harness h(GetParam());
    u64 total = 0;
    Cycle t = 0;
    for (int i = 0; i < 20; ++i) {
        TexRequest r = h.request(0.05f * float(i), 0.2f, t);
        TexResponse resp = processRequest(*h.path, r);
        total += resp.complete - r.wanted;
        t = resp.complete;
    }
    EXPECT_EQ(h.path->requests(), 20u);
    EXPECT_EQ(h.path->latencySum(), total);
}

TEST_P(PathContract, BeginFrameDoesNotBreakProcessing)
{
    Harness h(GetParam());
    processRequest(*h.path, h.request(0.5f, 0.5f, 0));
    h.path->beginFrame();
    TexResponse resp = processRequest(*h.path, h.request(0.5f, 0.5f, 0));
    EXPECT_GE(resp.complete, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, PathContract,
    testing::Values(PathKind::HostGddr5, PathKind::HostHmc, PathKind::Stfim,
                    PathKind::Atfim),
    [](const testing::TestParamInfo<PathKind> &info) {
        switch (info.param) {
          case PathKind::HostGddr5:
            return "host_gddr5";
          case PathKind::HostHmc:
            return "host_hmc";
          case PathKind::Stfim:
            return "stfim";
          default:
            return "atfim";
        }
    });

} // namespace
} // namespace texpim
