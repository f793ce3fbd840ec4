/**
 * @file
 * Property suite for the paper's central correctness claim (§V-B):
 * moving anisotropic filtering to the *front* of the filter pipeline
 * (A-TFIM's decomposed order) produces the same texture color as the
 * conventional order, for arbitrary textures, coordinates, anisotropy
 * levels and filter modes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "support/reference_sampler.hh"
#include "tex/sampler.hh"

namespace texpim {
namespace {

TextureImage
noise(unsigned w, unsigned h, u64 seed)
{
    Rng rng(seed);
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y, Rgba8{u8(rng.below(256)), u8(rng.below(256)),
                                     u8(rng.below(256)), 255});
    return img;
}

using ReorderParam = std::tuple<unsigned /*texSize*/, unsigned /*maxAniso*/,
                                FilterMode>;

class ReorderEquivalence : public testing::TestWithParam<ReorderParam>
{};

TEST_P(ReorderEquivalence, DecomposedMatchesConventional)
{
    auto [size, max_aniso, mode] = GetParam();
    Texture tex("noise", noise(size, size, size * 31 + max_aniso), 0x10000);

    Rng rng(0xc0ffee + size + max_aniso);
    SampleResult conv;
    DecomposedSampleResult decomp;

    for (int trial = 0; trial < 200; ++trial) {
        SampleCoords c;
        c.uv = {float(rng.uniform(-1.0, 2.0)), float(rng.uniform(-1.0, 2.0))};
        // Random footprints spanning magnification to heavy minification
        // and up to ~30:1 anisotropy.
        float base = float(rng.uniform(0.2, 20.0)) / float(size);
        float stretch = float(rng.uniform(1.0, 30.0));
        bool x_major = rng.chance(0.5);
        c.ddx = x_major ? Vec2{base * stretch, 0.0f} : Vec2{base, 0.0f};
        c.ddy = x_major ? Vec2{0.0f, base} : Vec2{0.0f, base * stretch};
        // Slightly rotate the footprint so offsets are not axis-aligned.
        float rot = float(rng.uniform(-0.3, 0.3));
        c.ddx.y = c.ddx.x * rot;
        c.ddy.x = c.ddy.y * rot;

        sampleConventional(tex, c, mode, max_aniso, conv);
        sampleDecomposed(tex, c, mode, max_aniso, decomp);

        ASSERT_EQ(conv.anisoRatio, decomp.anisoRatio) << "trial " << trial;
        // Same math, different association order: float-rounding-level
        // agreement only.
        EXPECT_NEAR(conv.color.r, decomp.color.r, 1e-4f) << "trial " << trial;
        EXPECT_NEAR(conv.color.g, decomp.color.g, 1e-4f) << "trial " << trial;
        EXPECT_NEAR(conv.color.b, decomp.color.b, 1e-4f) << "trial " << trial;
        EXPECT_NEAR(conv.color.a, decomp.color.a, 1e-4f) << "trial " << trial;
    }
}

std::string
reorderParamName(const testing::TestParamInfo<ReorderParam> &info)
{
    unsigned size = std::get<0>(info.param);
    unsigned aniso = std::get<1>(info.param);
    FilterMode mode = std::get<2>(info.param);
    return "tex" + std::to_string(size) + "_aniso" + std::to_string(aniso) +
           (mode == FilterMode::Bilinear ? "_bilinear" : "_trilinear");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReorderEquivalence,
    testing::Combine(testing::Values(32u, 64u, 256u),
                     testing::Values(2u, 4u, 8u, 16u),
                     testing::Values(FilterMode::Bilinear,
                                     FilterMode::Trilinear)),
    reorderParamName);

/** The union of all child texels equals the conventional fetch set —
 *  A-TFIM touches exactly the same texels, just from the logic layer. */
class FetchSetEquivalence : public testing::TestWithParam<unsigned>
{};

TEST_P(FetchSetEquivalence, ChildTexelsCoverConventionalFetches)
{
    unsigned max_aniso = GetParam();
    Texture tex("noise", noise(128, 128, 7), 0x20000);
    Rng rng(99);
    SampleResult conv;
    DecomposedSampleResult decomp;

    for (int trial = 0; trial < 100; ++trial) {
        SampleCoords c;
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        float base = float(rng.uniform(0.5, 8.0)) / 128.0f;
        c.ddx = {base * float(rng.uniform(1.0, 20.0)), 0.0f};
        c.ddy = {0.0f, base};

        sampleConventional(tex, c, FilterMode::Trilinear, max_aniso, conv);
        sampleDecomposed(tex, c, FilterMode::Trilinear, max_aniso, decomp);

        std::set<Addr> conv_set;
        for (const auto &f : conv.fetches)
            conv_set.insert(f.addr);
        std::set<Addr> child_set;
        for (const auto &p : decomp.parents)
            for (Addr a : p.children)
                child_set.insert(a);
        EXPECT_EQ(conv_set, child_set) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FetchSetEquivalence,
                         testing::Values(2u, 4u, 8u, 16u));

} // namespace
} // namespace texpim
