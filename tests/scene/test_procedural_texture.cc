#include <gtest/gtest.h>

#include <cstring>

#include "scene/procedural_texture.hh"

namespace texpim {
namespace {

const Material kAll[] = {
    Material::Checker, Material::Bricks, Material::Stone, Material::Marble,
    Material::Wood,    Material::Metal,  Material::Grass, Material::Concrete,
};

TEST(ProceduralTexture, AllMaterialsGenerate)
{
    for (Material m : kAll) {
        TextureImage img = generateTexture(m, 32, 1);
        EXPECT_EQ(img.width(), 32u);
        EXPECT_EQ(img.height(), 32u);
        SCOPED_TRACE(materialName(m));
    }
}

TEST(ProceduralTexture, DeterministicPerSeed)
{
    TextureImage a = generateTexture(Material::Stone, 64, 7);
    TextureImage b = generateTexture(Material::Stone, 64, 7);
    TextureImage c = generateTexture(Material::Stone, 64, 8);
    bool same = true, diff = false;
    for (unsigned y = 0; y < 64; ++y) {
        for (unsigned x = 0; x < 64; ++x) {
            same &= a.texel(x, y) == b.texel(x, y);
            diff |= !(a.texel(x, y) == c.texel(x, y));
        }
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(diff);
}

TEST(ProceduralTexture, MaterialsAreNotUniform)
{
    for (Material m : kAll) {
        TextureImage img = generateTexture(m, 64, 3);
        Rgba8 first = img.texel(0, 0);
        bool varied = false;
        for (unsigned y = 0; y < 64 && !varied; ++y)
            for (unsigned x = 0; x < 64 && !varied; ++x)
                varied = !(img.texel(x, y) == first);
        EXPECT_TRUE(varied) << materialName(m);
    }
}

TEST(ProceduralTexture, CheckerAlternates)
{
    TextureImage img = generateTexture(Material::Checker, 64, 0);
    // 8x8 checker on a 64-texel image: cells are 8 texels wide.
    EXPECT_FALSE(img.texel(0, 0) == img.texel(8, 0));
    EXPECT_TRUE(img.texel(0, 0) == img.texel(16, 0));
}

TEST(FbmNoise, RangeAndSmoothness)
{
    for (int i = 0; i < 200; ++i) {
        float x = float(i) * 0.37f;
        float v = fbmNoise(x, 1.3f, 4, 9);
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
        // Nearby samples stay close (continuity).
        float v2 = fbmNoise(x + 0.01f, 1.3f, 4, 9);
        EXPECT_LT(std::abs(v - v2), 0.2f);
    }
}

TEST(FbmNoise, SeedChangesField)
{
    EXPECT_NE(fbmNoise(1.5f, 2.5f, 4, 1), fbmNoise(1.5f, 2.5f, 4, 2));
}

// --- Golden outputs ----------------------------------------------------
//
// FNV-1a over every texel (r, g, b, a, row-major) of generateTexture,
// and the bit patterns of a few fbmNoise points, computed by calling
// fbmNoise at every texel. generateTexture's row walker must stay
// bit-identical to that: the texture content feeds every rendered
// golden image and sequence hash chain.

u64
textureHash(const TextureImage &img)
{
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned y = 0; y < img.height(); ++y) {
        for (unsigned x = 0; x < img.width(); ++x) {
            Rgba8 c = img.texel(x, y);
            for (u8 b : {c.r, c.g, c.b, c.a}) {
                h ^= b;
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

struct TextureGolden
{
    Material material;
    unsigned size;
    u64 seed;
    u64 hash;
};

const TextureGolden kTextureGoldens[] = {
    {Material::Checker, 4, 0x1, 0xf8310618553b4285ull},
    {Material::Checker, 4, 0x7e01d, 0xf8310618553b4285ull},
    {Material::Checker, 64, 0x1, 0xe8dfcd587aa97325ull},
    {Material::Checker, 64, 0x7e01d, 0xe8dfcd587aa97325ull},
    {Material::Checker, 512, 0x1, 0x47ce2f6a2d962325ull},
    {Material::Checker, 512, 0x7e01d, 0x47ce2f6a2d962325ull},
    {Material::Bricks, 4, 0x1, 0xd9541e02348faf65ull},
    {Material::Bricks, 4, 0x7e01d, 0xd9541e02348faf65ull},
    {Material::Bricks, 64, 0x1, 0x7b83d8047ba5f6b7ull},
    {Material::Bricks, 64, 0x7e01d, 0x03d0665a79144397ull},
    {Material::Bricks, 512, 0x1, 0xebd6d8a894c016a2ull},
    {Material::Bricks, 512, 0x7e01d, 0xac3fbe34f925b5a3ull},
    {Material::Stone, 4, 0x1, 0xda61d0ac6487afb9ull},
    {Material::Stone, 4, 0x7e01d, 0x6855ae771b2e4264ull},
    {Material::Stone, 64, 0x1, 0xd865353145e8b29bull},
    {Material::Stone, 64, 0x7e01d, 0xaf7bdb76cd411cc1ull},
    {Material::Stone, 512, 0x1, 0xd370cebd54ca2424ull},
    {Material::Stone, 512, 0x7e01d, 0xf9ecfe505f802a96ull},
    {Material::Marble, 4, 0x1, 0x13333ce0624e6334ull},
    {Material::Marble, 4, 0x7e01d, 0x6c504821c7d8fb54ull},
    {Material::Marble, 64, 0x1, 0x576714fe213c7c7eull},
    {Material::Marble, 64, 0x7e01d, 0x3272d5a8d11a2719ull},
    {Material::Marble, 512, 0x1, 0x983da1f1c5fa3e67ull},
    {Material::Marble, 512, 0x7e01d, 0x66bc982bce136b59ull},
    {Material::Wood, 4, 0x1, 0xb16fc4bd20d485b8ull},
    {Material::Wood, 4, 0x7e01d, 0x205486378dd5c63bull},
    {Material::Wood, 64, 0x1, 0x24a0eff61779f11full},
    {Material::Wood, 64, 0x7e01d, 0x2289137f28bbf0bfull},
    {Material::Wood, 512, 0x1, 0xbfe06e82f8089ecfull},
    {Material::Wood, 512, 0x7e01d, 0xbc7d2a8cfc29fbf8ull},
    {Material::Metal, 4, 0x1, 0x937388f4f7ddce04ull},
    {Material::Metal, 4, 0x7e01d, 0x9cfc06d0e905ef3aull},
    {Material::Metal, 64, 0x1, 0xe0f99d7e3afb59c8ull},
    {Material::Metal, 64, 0x7e01d, 0xb6e1ebb34bb41873ull},
    {Material::Metal, 512, 0x1, 0xdd696eb75b4057dcull},
    {Material::Metal, 512, 0x7e01d, 0x7f306738b502ad45ull},
    {Material::Grass, 4, 0x1, 0xe55cdd2778707d92ull},
    {Material::Grass, 4, 0x7e01d, 0x5ac36fdb719ef6a0ull},
    {Material::Grass, 64, 0x1, 0xc47ad4a6311b404dull},
    {Material::Grass, 64, 0x7e01d, 0x2842bbc9b07fecfaull},
    {Material::Grass, 512, 0x1, 0xd3067a7e961dcb13ull},
    {Material::Grass, 512, 0x7e01d, 0xd2510c337acb09a4ull},
    {Material::Concrete, 4, 0x1, 0xa1d75580ffa08ebbull},
    {Material::Concrete, 4, 0x7e01d, 0x2102d614cd104894ull},
    {Material::Concrete, 64, 0x1, 0xa09384aa94441f51ull},
    {Material::Concrete, 64, 0x7e01d, 0xcaf087933d4044bfull},
    {Material::Concrete, 512, 0x1, 0xa6fb367d449378e2ull},
    {Material::Concrete, 512, 0x7e01d, 0x8f4becaf369d5329ull},
};

TEST(ProceduralTexture, GoldenHashes)
{
    for (const TextureGolden &g : kTextureGoldens) {
        EXPECT_EQ(textureHash(generateTexture(g.material, g.size, g.seed)),
                  g.hash)
            << materialName(g.material) << " size " << g.size << " seed 0x"
            << std::hex << g.seed;
    }
}

struct NoiseGolden
{
    float x;
    float y;
    unsigned octaves;
    u64 seed;
    u32 bits; //!< the float result's bit pattern
};

const NoiseGolden kNoiseGoldens[] = {
    {0x0p+0, 0x0p+0, 1, 0x1, 0x3f3f5847u}, // 0.747440755
    {0x1.8p+0, 0x1.4p+1, 4, 0x1, 0x3f137420u}, // 0.575990677
    {0x1.abd70ap+3, -0x1.1p+2, 5, 0x7e01d, 0x3ea9af5du}, // 0.331416041
    {-0x1.0624dep-10, 0x1.f44p+9, 3, 0x9, 0x3f280049u}, // 0.656254351
    {0x1.ff8p+7, 0x1.fe6666p+4, 2, 0x5eed2, 0x3e96ad45u}, // 0.294290692
    {0x1.cp+2, 0x1.cp+2, 6, 0x2a, 0x3f031a49u}, // 0.51211983
};

TEST(FbmNoise, GoldenPoints)
{
    for (const NoiseGolden &g : kNoiseGoldens) {
        float v = fbmNoise(g.x, g.y, g.octaves, g.seed);
        u32 bits;
        std::memcpy(&bits, &v, sizeof bits);
        EXPECT_EQ(bits, g.bits) << "fbmNoise(" << g.x << ", " << g.y << ", "
                                << g.octaves << ", " << g.seed << ") = " << v;
    }
}

TEST(FbmNoise, GeneratedRowsMatchThePointEvaluator)
{
    // Grass is fbmNoise(u * 24, v * 24, 4, seed) shaded by a lerp, so
    // every texel of the row walker's output must equal the point
    // evaluator's color at that texel.
    constexpr unsigned kSize = 64;
    constexpr u64 kSeed = 0x5eed2;
    TextureImage img = generateTexture(Material::Grass, kSize, kSeed);
    float inv = 1.0f / float(kSize);
    for (unsigned y = 0; y < kSize; ++y) {
        for (unsigned x = 0; x < kSize; ++x) {
            float u = float(x) * inv;
            float v = float(y) * inv;
            float n = fbmNoise(u * 24, v * 24, 4, kSeed);
            Rgba8 want = packColor(lerp(ColorF{0.15f, 0.4f, 0.12f},
                                        ColorF{0.35f, 0.55f, 0.2f}, n));
            ASSERT_EQ(img.texel(x, y), want) << "texel " << x << "," << y;
        }
    }
}

TEST(ProceduralTextureDeath, TooSmallPanics)
{
    EXPECT_DEATH({ generateTexture(Material::Stone, 2, 0); },
                 "texture too small");
}

} // namespace
} // namespace texpim
