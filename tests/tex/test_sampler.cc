#include <gtest/gtest.h>

#include <set>

#include "support/reference_sampler.hh"
#include "tex/sampler.hh"

namespace texpim {
namespace {

/** Uniform gray texture: every filter must return exactly this color. */
TextureImage
flat(unsigned w, unsigned h, Rgba8 c)
{
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y, c);
    return img;
}

TextureImage
checker(unsigned w, unsigned h)
{
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y, ((x + y) & 1) ? Rgba8{255, 255, 255, 255}
                                             : Rgba8{0, 0, 0, 255});
    return img;
}

SampleCoords
coordsFor(float u, float v, float du, float dv)
{
    SampleCoords c;
    c.uv = {u, v};
    c.ddx = {du, 0.0f};
    c.ddy = {0.0f, dv};
    return c;
}

TEST(ComputeLod, UnitFootprintIsLevelZero)
{
    Texture t("t", flat(64, 64, {128, 128, 128, 255}), 0x0);
    // One texel per pixel: ddx = 1/64.
    LodInfo lod = computeLod(t, coordsFor(0.5f, 0.5f, 1.0f / 64, 1.0f / 64),
                             16);
    EXPECT_EQ(lod.anisoRatio, 1u);
    EXPECT_NEAR(lod.lambda, 0.0f, 1e-4f);
}

TEST(ComputeLod, MinificationRaisesLevel)
{
    Texture t("t", flat(64, 64, {128, 128, 128, 255}), 0x0);
    // 4 texels per pixel in each axis -> lambda = 2.
    LodInfo lod = computeLod(t, coordsFor(0.5f, 0.5f, 4.0f / 64, 4.0f / 64),
                             16);
    EXPECT_NEAR(lod.lambda, 2.0f, 1e-4f);
}

TEST(ComputeLod, AnisotropyRatioFromFootprint)
{
    Texture t("t", flat(64, 64, {128, 128, 128, 255}), 0x0);
    // 8 texels in x, 1 texel in y -> 8:1 anisotropy.
    LodInfo lod = computeLod(t, coordsFor(0.5f, 0.5f, 8.0f / 64, 1.0f / 64),
                             16);
    EXPECT_EQ(lod.anisoRatio, 8u);
    // LOD uses major/N = 1 texel -> level 0: aniso preserves detail.
    EXPECT_NEAR(lod.lambda, 0.0f, 1e-4f);
}

TEST(ComputeLod, AnisotropyClampedByMax)
{
    Texture t("t", flat(64, 64, {128, 128, 128, 255}), 0x0);
    LodInfo lod = computeLod(t, coordsFor(0.5f, 0.5f, 32.0f / 64, 1.0f / 64),
                             4);
    EXPECT_EQ(lod.anisoRatio, 4u);
    // Remaining footprint goes to mip selection: major/N = 8 -> lambda 3.
    EXPECT_NEAR(lod.lambda, 3.0f, 1e-4f);
}

TEST(ComputeLod, MaxAnisoOneDisables)
{
    Texture t("t", flat(64, 64, {128, 128, 128, 255}), 0x0);
    LodInfo lod = computeLod(t, coordsFor(0.5f, 0.5f, 8.0f / 64, 1.0f / 64),
                             1);
    EXPECT_EQ(lod.anisoRatio, 1u);
    EXPECT_NEAR(lod.lambda, 3.0f, 1e-4f); // log2(8)
}

TEST(SampleConventional, FlatTextureAnyFilterReturnsFlat)
{
    Texture t("t", flat(64, 64, {100, 150, 200, 255}), 0x0);
    SampleResult r;
    for (auto mode : {FilterMode::Bilinear, FilterMode::Trilinear}) {
        sampleConventional(t, coordsFor(0.3f, 0.7f, 6.0f / 64, 1.0f / 64),
                           mode, 16, r);
        EXPECT_NEAR(r.color.r, 100.0f / 255, 2e-2f);
        EXPECT_NEAR(r.color.g, 150.0f / 255, 2e-2f);
        EXPECT_NEAR(r.color.b, 200.0f / 255, 2e-2f);
    }
}

TEST(SampleConventional, TexelCountsMatchPaper)
{
    Texture t("t", flat(256, 256, {128, 128, 128, 255}), 0x0);
    SampleResult r;

    // Isotropic trilinear: 8 texels.
    sampleConventional(t, coordsFor(0.5f, 0.5f, 2.0f / 256, 2.0f / 256),
                       FilterMode::Trilinear, 16, r);
    EXPECT_EQ(r.anisoRatio, 1u);
    EXPECT_EQ(r.fetches.size(), 8u);

    // 4x anisotropic trilinear: 32 texels (Fig. 7A).
    sampleConventional(t, coordsFor(0.5f, 0.5f, 8.0f / 256, 2.0f / 256),
                       FilterMode::Trilinear, 16, r);
    EXPECT_EQ(r.anisoRatio, 4u);
    EXPECT_EQ(r.fetches.size(), 32u);

    // 16x anisotropic trilinear: 128 texels (SII-C: 16*2*4).
    sampleConventional(t, coordsFor(0.5f, 0.5f, 32.0f / 256, 2.0f / 256),
                       FilterMode::Trilinear, 16, r);
    EXPECT_EQ(r.anisoRatio, 16u);
    EXPECT_EQ(r.fetches.size(), 128u);
}

TEST(SampleConventional, BilinearUsesOneLevel)
{
    Texture t("t", flat(64, 64, {10, 20, 30, 255}), 0x0);
    SampleResult r;
    sampleConventional(t, coordsFor(0.5f, 0.5f, 1.0f / 64, 1.0f / 64),
                       FilterMode::Bilinear, 1, r);
    EXPECT_EQ(r.fetches.size(), 4u);
    std::set<u8> levels;
    for (const auto &f : r.fetches)
        levels.insert(f.level);
    EXPECT_EQ(levels.size(), 1u);
}

TEST(SampleConventional, CheckerMinifiedConvergesToGray)
{
    Texture t("t", checker(128, 128), 0x0);
    SampleResult r;
    // Heavy minification: should blend black and white to ~0.5.
    sampleConventional(t, coordsFor(0.5f, 0.5f, 32.0f / 128, 32.0f / 128),
                       FilterMode::Trilinear, 1, r);
    EXPECT_NEAR(r.color.r, 0.5f, 0.05f);
}

TEST(SampleDecomposed, ParentAndChildCountsMatchPaper)
{
    Texture t("t", flat(256, 256, {99, 99, 99, 255}), 0x0);
    DecomposedSampleResult d;

    // 4x aniso trilinear (Fig. 7B): 8 parents, 4 children each = 32.
    sampleDecomposed(t, coordsFor(0.5f, 0.5f, 8.0f / 256, 2.0f / 256),
                     FilterMode::Trilinear, 16, d);
    EXPECT_EQ(d.anisoRatio, 4u);
    EXPECT_EQ(d.parents.size(), 8u);
    for (const auto &p : d.parents)
        EXPECT_EQ(p.children.size(), 4u);
}

TEST(SampleDecomposed, IsotropicParentsEqualChildren)
{
    Texture t("t", flat(64, 64, {50, 60, 70, 255}), 0x0);
    DecomposedSampleResult d;
    sampleDecomposed(t, coordsFor(0.5f, 0.5f, 2.0f / 64, 2.0f / 64),
                     FilterMode::Trilinear, 16, d);
    EXPECT_EQ(d.anisoRatio, 1u);
    for (const auto &p : d.parents) {
        ASSERT_EQ(p.children.size(), 1u);
        EXPECT_EQ(p.children[0], p.addr);
    }
}

TEST(SampleEwa, EqualsBoxFilterWhenIsotropic)
{
    // With a single footprint sample (N = 1) the Gaussian weight
    // cancels, so EWA and the box filter agree exactly.
    Texture t("t", checker(64, 64), 0x0);
    SampleResult box, ewa;
    SampleCoords c = coordsFor(0.37f, 0.61f, 1.5f / 64, 1.5f / 64);
    sampleConventional(t, c, FilterMode::Trilinear, 16, box);
    sampleConventional(t, c, FilterMode::TrilinearEwa, 16, ewa);
    ASSERT_EQ(box.anisoRatio, 1u);
    EXPECT_FLOAT_EQ(box.color.r, ewa.color.r);
}

TEST(SampleEwa, SameFetchSetDifferentWeights)
{
    // EWA touches the same texels as the box filter; only the
    // weighting differs (which is why it costs the same bandwidth).
    Texture t("t", checker(256, 256), 0x0);
    SampleResult box, ewa;
    SampleCoords c = coordsFor(0.5f, 0.5f, 16.0f / 256, 2.0f / 256);
    sampleConventional(t, c, FilterMode::Trilinear, 16, box);
    sampleConventional(t, c, FilterMode::TrilinearEwa, 16, ewa);
    ASSERT_EQ(box.fetches.size(), ewa.fetches.size());
    for (size_t i = 0; i < box.fetches.size(); ++i)
        EXPECT_EQ(box.fetches[i].addr, ewa.fetches[i].addr);
    // Color is still a convex combination of texel values.
    EXPECT_GE(ewa.color.r, 0.0f);
    EXPECT_LE(ewa.color.r, 1.0f);
}

TEST(SampleEwa, CenterWeightedVsBoxOnGradientFootprint)
{
    // On a horizontal ramp the Gaussian center weighting pulls the
    // result toward the footprint center; with a symmetric footprint
    // both filters land near the midpoint but they must not be
    // identical on an asymmetric-value footprint.
    TextureImage img(256, 256);
    for (unsigned y = 0; y < 256; ++y)
        for (unsigned x = 0; x < 256; ++x) {
            u8 v = x < 128 ? u8(x) : 255;
            img.setTexel(x, y, {v, v, v, 255});
        }
    Texture t("ramp", std::move(img), 0x0);
    SampleResult box, ewa;
    SampleCoords c = coordsFor(0.5f, 0.5f, 16.0f / 256, 2.0f / 256);
    sampleConventional(t, c, FilterMode::Trilinear, 16, box);
    sampleConventional(t, c, FilterMode::TrilinearEwa, 16, ewa);
    if (box.anisoRatio > 1) {
        EXPECT_NE(box.color.r, ewa.color.r);
    }
}

TEST(SampleDecomposedDeath, EwaModeRejected)
{
    // Eq. (3)'s reordering needs equal weights: the decomposition
    // refuses the EWA mode.
    Texture t("t", flat(64, 64, {1, 2, 3, 255}), 0x0);
    DecomposedSampleResult d;
    EXPECT_DEATH(
        {
            sampleDecomposed(t, coordsFor(0.5f, 0.5f, 0.1f, 0.01f),
                             FilterMode::TrilinearEwa, 16, d);
        },
        "equal-weight");
}

} // namespace
} // namespace texpim
