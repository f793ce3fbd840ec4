/**
 * @file
 * Differential lockdown of the quad-SoA sampler against the scalar
 * reference (tests/support/reference_sampler.hh):
 * sampleConventionalQuad / sampleDecomposedQuad must equal
 * sampleConventional / sampleDecomposed *bit for bit* — colors, counts,
 * routes, canonical block lists, and the parent decompositions (fx,
 * fy, level weight, parent values and child blocks) that determine a
 * decomposed sample's replayed color — for every filter mode, anisotropy level, texel format, lane count
 * and coordinate regime (edge texels, wrap seams, negative UVs, mip
 * tails). Any FP-expression drift between the two paths breaks the
 * renderer's golden images; this suite catches it at the sampler layer
 * with a precise lane/field diagnosis instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "support/reference_sampler.hh"
#include "tex/sampler.hh"

namespace texpim {
namespace {

// Bit-level float compare: EXPECT_FLOAT_EQ tolerates 4 ulps, which is
// exactly the drift this suite exists to reject.
::testing::AssertionResult
bitsEqual(float a, float b)
{
    if (std::bit_cast<u32>(a) == std::bit_cast<u32>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " (0x" << std::hex << std::bit_cast<u32>(a) << ") vs "
           << b << " (0x" << std::bit_cast<u32>(b) << ")";
}

::testing::AssertionResult
colorBitsEqual(const ColorF &a, const ColorF &b)
{
    const float ac[4] = {a.r, a.g, a.b, a.a};
    const float bc[4] = {b.r, b.g, b.b, b.a};
    for (int i = 0; i < 4; ++i)
        if (std::bit_cast<u32>(ac[i]) != std::bit_cast<u32>(bc[i]))
            return ::testing::AssertionFailure()
                   << "channel " << i << ": " << bitsEqual(ac[i], bc[i]).message();
    return ::testing::AssertionSuccess();
}

TextureImage
noiseImage(unsigned w, unsigned h, u64 seed)
{
    Rng rng(seed);
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y,
                         {u8(rng.below(256)), u8(rng.below(256)),
                          u8(rng.below(256)), u8(rng.below(256))});
    return img;
}

/**
 * Seeded coordinate generator spanning the sampler's regimes. Cycles
 * deterministically through magnification, mid-chain minification, mip
 * tails (footprints larger than the base level), exact texel-corner /
 * edge UVs, wrap seams and negative UVs, with camera angles present on
 * half the coordinates (the A-TFIM angle-derived anisotropy path).
 */
SampleCoords
makeCoords(Rng &rng, unsigned i, unsigned tex_size)
{
    SampleCoords c;
    float inv = 1.0f / float(tex_size);
    switch (i % 6) {
    case 0: // magnified: sub-texel footprint
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {0.25f * inv, 0.0f};
        c.ddy = {0.0f, 0.25f * inv};
        break;
    case 1: // minified mid-chain, anisotropic in x
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.range(2, 12)) * inv, float(rng.uniform(0.0, 2.0)) * inv};
        c.ddy = {0.0f, 2.0f * inv};
        break;
    case 2: // mip tail: footprint spans the whole texture and beyond
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.range(1, 4)), 0.0f};
        c.ddy = {0.0f, float(rng.range(1, 4))};
        break;
    case 3: { // edge/corner texels: uv exactly on texel boundaries
        unsigned k = unsigned(rng.below(tex_size + 1));
        c.uv = {float(k) * inv, rng.chance(0.5) ? 0.0f : 1.0f};
        c.ddx = {1.5f * inv, 0.0f};
        c.ddy = {0.0f, 1.5f * inv};
        break;
    }
    case 4: // wrap seam and negative UV (repeat addressing)
        c.uv = {float(rng.uniform(-2.0, -0.001)), float(rng.uniform(1.0, 3.0))};
        c.ddx = {float(rng.uniform(0.5, 6.0)) * inv, 0.0f};
        c.ddy = {0.0f, float(rng.uniform(0.5, 6.0)) * inv};
        break;
    default: // oblique anisotropy: both derivative vectors non-axial
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.uniform(-8.0, 8.0)) * inv,
                 float(rng.uniform(-8.0, 8.0)) * inv};
        c.ddy = {float(rng.uniform(-2.0, 2.0)) * inv,
                 float(rng.uniform(-2.0, 2.0)) * inv};
        break;
    }
    if (rng.chance(0.5))
        c.cameraAngle = float(rng.uniform(0.01, 1.5));
    return c;
}

struct TexCase
{
    const char *tag;
    unsigned w, h;
    TexelFormat fmt;
    u64 seed;
};

const TexCase kTexCases[] = {
    {"rgba8_256", 256, 256, TexelFormat::Rgba8, 7},
    {"bc1_256", 256, 256, TexelFormat::Bc1, 11},
    {"rgba8_wide_128x32", 128, 32, TexelFormat::Rgba8, 13},
    {"rgba8_tiny_16", 16, 16, TexelFormat::Rgba8, 17},
};

constexpr Addr kLineMask = ~Addr(63);  //!< texture-L1 line granularity
constexpr Addr kBurstMask = ~Addr(31); //!< HMC DRAM-burst granularity

using ConvParam = std::tuple<FilterMode, unsigned /*maxAniso*/>;

class QuadConvDifferential : public testing::TestWithParam<ConvParam>
{};

TEST_P(QuadConvDifferential, MatchesScalarBitForBit)
{
    auto [mode, max_aniso] = GetParam();
    for (const TexCase &tc : kTexCases) {
        Texture tex(tc.tag, noiseImage(tc.w, tc.h, tc.seed), 0x10000,
                    tc.fmt);
        Rng rng(0xABCDu + max_aniso);
        QuadConvOut out;
        AnisoOffsetCache ocache;
        unsigned coord_idx = 0;
        for (unsigned batch = 0; batch < 24; ++batch) {
            // Lane counts 1..4 all exercised (partial quads at
            // triangle edges are the common case in the renderer).
            unsigned count = 1 + unsigned(batch % kQuadLanes);
            SampleCoords coords[kQuadLanes];
            for (unsigned q = 0; q < count; ++q)
                coords[q] = makeCoords(rng, coord_idx++, tc.w);

            sampleConventionalQuad(tex, coords, count, mode, max_aniso,
                                   kLineMask, out, ocache);

            for (unsigned q = 0; q < count; ++q) {
                SCOPED_TRACE(std::string(tc.tag) + " batch " +
                             std::to_string(batch) + " lane " +
                             std::to_string(q));
                SampleResult ref;
                sampleConventional(tex, coords[q], mode, max_aniso, ref);

                EXPECT_TRUE(colorBitsEqual(out.color[q], ref.color));
                EXPECT_EQ(out.anisoRatio[q], ref.anisoRatio);
                EXPECT_EQ(out.texels[q], unsigned(ref.fetches.size()));
                EXPECT_EQ(out.filterOps[q], ref.filterOps);
                ASSERT_FALSE(ref.fetches.empty());
                EXPECT_EQ(out.route[q], ref.fetches[0].addr);

                // Canonical block list: masked, sorted, unique — the
                // derivation HostTexturePath::sample applies to the
                // scalar fetch trace.
                std::vector<Addr> want;
                want.reserve(ref.fetches.size());
                for (const TexFetch &f : ref.fetches)
                    want.push_back(f.addr & kLineMask);
                std::sort(want.begin(), want.end());
                want.erase(std::unique(want.begin(), want.end()),
                           want.end());
                ASSERT_EQ(out.blockCount[q], u32(want.size()));
                for (size_t i = 0; i < want.size(); ++i)
                    EXPECT_EQ(out.blocks[q][i], want[i]) << "block " << i;
            }
        }
    }
}

std::string
convParamName(const testing::TestParamInfo<ConvParam> &info)
{
    static const char *names[] = {"Bilinear", "Trilinear", "TrilinearEwa"};
    return std::string(names[unsigned(std::get<0>(info.param))]) +
           "_aniso" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, QuadConvDifferential,
    testing::Combine(testing::Values(FilterMode::Bilinear,
                                     FilterMode::Trilinear,
                                     FilterMode::TrilinearEwa),
                     testing::Values(1u, 4u, 16u)),
    convParamName);

using DecompParam = std::tuple<FilterMode, unsigned>;

class QuadDecompDifferential : public testing::TestWithParam<DecompParam>
{};

TEST_P(QuadDecompDifferential, MatchesScalarBitForBit)
{
    auto [mode, max_aniso] = GetParam();
    for (const TexCase &tc : kTexCases) {
        Texture tex(tc.tag, noiseImage(tc.w, tc.h, tc.seed), 0x40000,
                    tc.fmt);
        Rng rng(0x5EEDu + max_aniso);
        QuadDecompOut out;
        AnisoOffsetCache ocache;
        unsigned coord_idx = 0;
        for (unsigned batch = 0; batch < 24; ++batch) {
            unsigned count = 1 + unsigned(batch % kQuadLanes);
            SampleCoords coords[kQuadLanes];
            for (unsigned q = 0; q < count; ++q)
                coords[q] = makeCoords(rng, coord_idx++, tc.w);

            sampleDecomposedQuad(tex, coords, count, mode, max_aniso,
                                 kBurstMask, out, ocache);

            for (unsigned q = 0; q < count; ++q) {
                SCOPED_TRACE(std::string(tc.tag) + " batch " +
                             std::to_string(batch) + " lane " +
                             std::to_string(q));
                DecomposedSampleResult ref;
                sampleDecomposed(tex, coords[q], mode, max_aniso, ref);

                unsigned n = ref.anisoRatio;
                EXPECT_EQ(out.anisoRatio[q], n);
                EXPECT_EQ(out.hostFilterOps[q], ref.hostFilterOps);
                EXPECT_EQ(unsigned(out.numLevels[q]), ref.numLevels);
                for (unsigned l = 0; l < ref.numLevels; ++l) {
                    EXPECT_TRUE(bitsEqual(out.fx[q][l], ref.fx[l]));
                    EXPECT_TRUE(bitsEqual(out.fy[q][l], ref.fy[l]));
                }
                EXPECT_TRUE(
                    bitsEqual(out.levelWeight[q], ref.levelWeight));

                ASSERT_EQ(out.parentCount[q], u32(ref.parents.size()));
                for (unsigned p = 0; p < ref.parents.size(); ++p) {
                    const ParentTexel &rp = ref.parents[p];
                    EXPECT_EQ(out.parentAddr[q][p], rp.addr)
                        << "parent " << p;
                    EXPECT_TRUE(colorBitsEqual(out.parentValue[q][p],
                                               rp.value))
                        << "parent " << p;
                    // Child blocks: masked, duplicate-preserving,
                    // per-parent order, exactly N per parent.
                    ASSERT_EQ(rp.children.size(), size_t(n))
                        << "parent " << p;
                    for (unsigned i = 0; i < n; ++i)
                        EXPECT_EQ(out.childBlocks[q][size_t(p) * n + i],
                                  rp.children[i] & kBurstMask)
                            << "parent " << p << " child " << i;
                }
            }
        }
    }
}

std::string
decompParamName(const testing::TestParamInfo<DecompParam> &info)
{
    return std::string(std::get<0>(info.param) == FilterMode::Bilinear
                           ? "Bilinear"
                           : "Trilinear") +
           "_aniso" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    LinearModes, QuadDecompDifferential,
    testing::Combine(testing::Values(FilterMode::Bilinear,
                                     FilterMode::Trilinear),
                     testing::Values(1u, 4u, 16u)),
    decompParamName);

// The footprint-offset memo table must be semantically invisible: a
// warm (possibly colliding) cache and a cold one produce identical
// outputs. Two textures of different sizes interleaved with varied
// anisotropy churn the 64 direct-mapped slots well past capacity.
TEST(AnisoOffsetCacheTransparency, WarmAndColdCachesAgree)
{
    Texture a("a", noiseImage(256, 256, 23), 0x10000);
    Texture b("b", noiseImage(64, 64, 29), 0x80000, TexelFormat::Bc1);
    Rng rng(0xCAFE);
    AnisoOffsetCache warm;
    QuadConvOut got, want;
    for (unsigned i = 0; i < 200; ++i) {
        const Texture &tex = (i & 1) ? b : a;
        unsigned size = (i & 1) ? 64 : 256;
        SampleCoords c = makeCoords(rng, i, size);
        AnisoOffsetCache cold;
        sampleConventionalQuad(tex, &c, 1, FilterMode::Trilinear, 16,
                               kLineMask, got, warm);
        sampleConventionalQuad(tex, &c, 1, FilterMode::Trilinear, 16,
                               kLineMask, want, cold);
        SCOPED_TRACE("iteration " + std::to_string(i));
        EXPECT_TRUE(colorBitsEqual(got.color[0], want.color[0]));
        EXPECT_EQ(got.texels[0], want.texels[0]);
        EXPECT_EQ(got.route[0], want.route[0]);
        ASSERT_EQ(got.blockCount[0], want.blockCount[0]);
        for (u32 k = 0; k < got.blockCount[0]; ++k)
            EXPECT_EQ(got.blocks[0][k], want.blocks[0][k]);
    }
}

// Same call twice must produce identical bits (no hidden state in the
// quad path besides the transparent offset cache).
TEST(QuadSamplerDeterminism, RepeatCallsAreBitIdentical)
{
    Texture tex("t", noiseImage(128, 128, 31), 0x20000);
    Rng rng(0xD00D);
    SampleCoords coords[kQuadLanes];
    for (unsigned q = 0; q < kQuadLanes; ++q)
        coords[q] = makeCoords(rng, q, 128);
    QuadConvOut first, second;
    AnisoOffsetCache ocache;
    sampleConventionalQuad(tex, coords, kQuadLanes, FilterMode::Trilinear,
                           16, kLineMask, first, ocache);
    sampleConventionalQuad(tex, coords, kQuadLanes, FilterMode::Trilinear,
                           16, kLineMask, second, ocache);
    for (unsigned q = 0; q < kQuadLanes; ++q) {
        EXPECT_TRUE(colorBitsEqual(first.color[q], second.color[q]));
        EXPECT_EQ(first.route[q], second.route[q]);
        ASSERT_EQ(first.blockCount[q], second.blockCount[q]);
        for (u32 k = 0; k < first.blockCount[q]; ++k)
            EXPECT_EQ(first.blocks[q][k], second.blocks[q][k]);
    }
}

} // namespace
} // namespace texpim
