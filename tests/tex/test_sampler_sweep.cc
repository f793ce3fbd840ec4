/**
 * @file
 * Parameterized sweeps over the sampler: texel-count laws per filter
 * mode and anisotropy level across texture sizes, mip-level selection,
 * and wrap addressing — the §II-C arithmetic the paper builds on
 * (bilinear 4, trilinear 8, N-tap anisotropic N x 8).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.hh"
#include "support/reference_sampler.hh"
#include "tex/sampler.hh"

namespace texpim {
namespace {

TextureImage
gray(unsigned n)
{
    TextureImage img(n, n);
    for (unsigned y = 0; y < n; ++y)
        for (unsigned x = 0; x < n; ++x)
            img.setTexel(x, y, {128, 128, 128, 255});
    return img;
}

using CountParam = std::tuple<unsigned /*texSize*/, unsigned /*aniso*/>;

class TexelCountLaw : public testing::TestWithParam<CountParam>
{};

TEST_P(TexelCountLaw, AnisotropicTrilinearFetchesEightPerTap)
{
    auto [size, aniso] = GetParam();
    Texture t("t", gray(size), 0x0);
    SampleCoords c;
    c.uv = {0.5f, 0.5f};
    // Footprint engineered for exactly `aniso` ratio with minor axis
    // of 2 texels (keeps both mip levels in range).
    c.ddx = {float(2 * aniso) / float(size), 0.0f};
    c.ddy = {0.0f, 2.0f / float(size)};
    SampleResult r;
    sampleConventional(t, c, FilterMode::Trilinear, 16, r);
    ASSERT_EQ(r.anisoRatio, aniso);
    EXPECT_EQ(r.fetches.size(), size_t(aniso) * 8);

    sampleConventional(t, c, FilterMode::Bilinear, 16, r);
    EXPECT_EQ(r.fetches.size(), size_t(r.anisoRatio) * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TexelCountLaw,
    testing::Combine(testing::Values(128u, 512u, 1024u),
                     testing::Values(2u, 4u, 8u, 16u)),
    [](const testing::TestParamInfo<CountParam> &info) {
        return "tex" + std::to_string(std::get<0>(info.param)) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

class MipSelection : public testing::TestWithParam<unsigned>
{};

TEST_P(MipSelection, LevelFollowsFootprintOctaves)
{
    unsigned size = GetParam();
    Texture t("t", gray(size), 0x0);
    // Isotropic footprints of 2^k texels select level ~k.
    for (unsigned k = 0; (size >> k) >= 8; ++k) {
        SampleCoords c;
        c.uv = {0.5f, 0.5f};
        float tx = float(1u << k) / float(size);
        c.ddx = {tx, 0.0f};
        c.ddy = {0.0f, tx};
        LodInfo lod = computeLod(t, c, 1);
        EXPECT_NEAR(lod.lambda, float(k), 0.51f) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipSelection,
                         testing::Values(64u, 256u, 1024u));

TEST(SamplerWrap, OutOfRangeUvSamplesSameTexels)
{
    Texture t("t", gray(64), 0x0);
    SampleResult a, b;
    SampleCoords ca, cb;
    ca.uv = {0.25f, 0.25f};
    cb.uv = {1.25f, -0.75f}; // one full wrap in each axis
    ca.ddx = cb.ddx = {1.0f / 64, 0};
    ca.ddy = cb.ddy = {0, 1.0f / 64};
    sampleConventional(t, ca, FilterMode::Trilinear, 1, a);
    sampleConventional(t, cb, FilterMode::Trilinear, 1, b);
    ASSERT_EQ(a.fetches.size(), b.fetches.size());
    for (size_t i = 0; i < a.fetches.size(); ++i)
        EXPECT_EQ(a.fetches[i].addr, b.fetches[i].addr) << i;
}

TEST(SamplerDeterminism, SameRequestSameTrace)
{
    Rng rng(11);
    TextureImage img(128, 128);
    for (unsigned y = 0; y < 128; ++y)
        for (unsigned x = 0; x < 128; ++x)
            img.setTexel(x, y, {u8(rng.below(256)), 0, 0, 255});
    Texture t("t", std::move(img), 0x4000);

    SampleCoords c;
    c.uv = {0.371f, 0.642f};
    c.ddx = {0.021f, 0.003f};
    c.ddy = {0.001f, 0.008f};
    c.cameraAngle = 1.1f;

    SampleResult a, b;
    sampleConventional(t, c, FilterMode::Trilinear, 16, a);
    sampleConventional(t, c, FilterMode::Trilinear, 16, b);
    EXPECT_EQ(a.fetches.size(), b.fetches.size());
    EXPECT_FLOAT_EQ(a.color.g, b.color.g);
    for (size_t i = 0; i < a.fetches.size(); ++i)
        EXPECT_EQ(a.fetches[i].addr, b.fetches[i].addr);
}

TEST(SamplerLevels, TrilinearTouchesAdjacentLevelsOnly)
{
    Texture t("t", gray(256), 0x0);
    SampleCoords c;
    c.uv = {0.3f, 0.7f};
    c.ddx = {3.0f / 256, 0}; // lambda ~ 1.6: levels 1 and 2
    c.ddy = {0, 3.0f / 256};
    SampleResult r;
    sampleConventional(t, c, FilterMode::Trilinear, 1, r);
    std::set<u8> levels;
    for (const auto &f : r.fetches)
        levels.insert(f.level);
    ASSERT_EQ(levels.size(), 2u);
    auto it = levels.begin();
    u8 lo = *it++;
    EXPECT_EQ(*it, lo + 1);
}

TEST(SamplerDecomposed, ChildCountEqualsAnisoRatioPerParent)
{
    Texture t("t", gray(512), 0x0);
    for (unsigned aniso : {2u, 4u, 8u, 16u}) {
        SampleCoords c;
        c.uv = {0.5f, 0.5f};
        c.ddx = {float(2 * aniso) / 512, 0};
        c.ddy = {0, 2.0f / 512};
        DecomposedSampleResult d;
        sampleDecomposed(t, c, FilterMode::Trilinear, 16, d);
        ASSERT_EQ(d.anisoRatio, aniso);
        for (const auto &p : d.parents)
            EXPECT_EQ(p.children.size(), size_t(aniso));
    }
}

} // namespace
} // namespace texpim
