#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/color.hh"

namespace texpim {
namespace {

TEST(Color, PackUnpackRoundTrip)
{
    Rgba8 c{10, 100, 200, 255};
    Rgba8 r = packColor(unpackColor(c));
    EXPECT_EQ(r, c);
}

TEST(Color, PackClampsOutOfRange)
{
    Rgba8 r = packColor(ColorF{-0.5f, 2.0f, 0.5f, 1.0f});
    EXPECT_EQ(r.r, 0);
    EXPECT_EQ(r.g, 255);
    EXPECT_EQ(r.b, 128);
}

TEST(Color, LerpMidpoint)
{
    ColorF a{0, 0, 0, 0}, b{1, 1, 1, 1};
    ColorF m = lerp(a, b, 0.25f);
    EXPECT_FLOAT_EQ(m.r, 0.25f);
    EXPECT_FLOAT_EQ(m.a, 0.25f);
}

TEST(Color, ModulateMultiplies)
{
    ColorF a{0.5f, 1.0f, 0.25f, 1.0f};
    ColorF b{0.5f, 0.5f, 1.0f, 1.0f};
    ColorF m = a * b;
    EXPECT_FLOAT_EQ(m.r, 0.25f);
    EXPECT_FLOAT_EQ(m.g, 0.5f);
    EXPECT_FLOAT_EQ(m.b, 0.25f);
}

TEST(Color, ClampedBoundsComponents)
{
    ColorF c{-1.0f, 0.5f, 3.0f, 1.0f};
    ColorF k = c.clamped();
    EXPECT_FLOAT_EQ(k.r, 0.0f);
    EXPECT_FLOAT_EQ(k.g, 0.5f);
    EXPECT_FLOAT_EQ(k.b, 1.0f);
}

TEST(Color, FloatToByteRounds)
{
    EXPECT_EQ(floatToByte(0.0f), 0);
    EXPECT_EQ(floatToByte(1.0f), 255);
    EXPECT_EQ(floatToByte(0.5f), 128); // round(127.5) = 128
}

/** floatToByte's contract, spelled with std::lround. */
u8
lroundByte(float v)
{
    return u8(std::lround(std::clamp(v, 0.0f, 1.0f) * 255.0f));
}

TEST(Color, FloatToByteMatchesLroundAtEveryRoundingBoundary)
{
    // c * 255 crosses k + 0.5 near c = (k + 0.5) / 255; check every
    // float within 64 ulps of each such boundary.
    for (int k = 0; k < 255; ++k) {
        float v = (float(k) + 0.5f) / 255.0f;
        for (int i = 0; i < 64; ++i)
            v = std::nextafter(v, 0.0f);
        for (int i = 0; i <= 128; ++i) {
            ASSERT_EQ(floatToByte(v), lroundByte(v))
                << "k " << k << " v " << v;
            v = std::nextafter(v, 1.0f);
        }
    }
}

TEST(Color, FloatToByteMatchesLroundOutsideAndAtTheEnds)
{
    const float vs[] = {
        -0.0f, 0.0f, -1e-30f, 1e-30f, -0.5f, -1.0f, -1e30f,
        1.0f,  1.5f, 2.0f,    1e30f,
        std::nextafter(1.0f, 0.0f), std::nextafter(1.0f, 2.0f),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::infinity(),
    };
    for (float v : vs)
        EXPECT_EQ(floatToByte(v), lroundByte(v)) << "v " << v;
    EXPECT_EQ(floatToByte(std::numeric_limits<float>::quiet_NaN()), 0);
    EXPECT_EQ(floatToByte(-0.0f), 0);
    EXPECT_EQ(floatToByte(1.0f), 255);
    EXPECT_EQ(floatToByte(7.0f), 255);
}

TEST(Color, FloatToByteMatchesLroundOnAStridedSweep)
{
    for (int i = 0; i <= 4096; ++i) {
        float v = float(i) / 4096.0f;
        ASSERT_EQ(floatToByte(v), lroundByte(v)) << "v " << v;
    }
}

} // namespace
} // namespace texpim
