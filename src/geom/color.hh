/**
 * @file
 * Four-component (RGBA) color in float and packed 8-bit forms, plus the
 * conversions the texture filters and ROP need.
 */

#ifndef TEXPIM_GEOM_COLOR_HH
#define TEXPIM_GEOM_COLOR_HH

#include <algorithm>

#include "common/types.hh"

namespace texpim {

/** Floating-point RGBA color; components nominally in [0, 1]. */
struct ColorF
{
    float r = 0.0f;
    float g = 0.0f;
    float b = 0.0f;
    float a = 1.0f;

    constexpr ColorF() = default;
    constexpr ColorF(float r_, float g_, float b_, float a_ = 1.0f)
        : r(r_), g(g_), b(b_), a(a_)
    {}

    constexpr ColorF operator+(ColorF o) const
    {
        return {r + o.r, g + o.g, b + o.b, a + o.a};
    }
    constexpr ColorF operator*(float s) const
    {
        return {r * s, g * s, b * s, a * s};
    }
    constexpr ColorF
    operator*(ColorF o) const
    {
        return {r * o.r, g * o.g, b * o.b, a * o.a};
    }

    ColorF
    clamped() const
    {
        return {std::clamp(r, 0.0f, 1.0f), std::clamp(g, 0.0f, 1.0f),
                std::clamp(b, 0.0f, 1.0f), std::clamp(a, 0.0f, 1.0f)};
    }
};

constexpr ColorF
lerp(ColorF a, ColorF b, float t)
{
    return a * (1.0f - t) + b * t;
}

/** Packed 8-bit-per-channel RGBA texel / framebuffer pixel. */
struct Rgba8
{
    u8 r = 0;
    u8 g = 0;
    u8 b = 0;
    u8 a = 255;

    constexpr bool
    operator==(const Rgba8 &o) const
    {
        return r == o.r && g == o.g && b == o.b && a == o.a;
    }
};

/**
 * Clamp to [0, 1] and round to the nearest of 0..255, halves away from
 * zero (std::lround's rule); NaN packs as 0. The scaled value is in
 * [0, 255], where truncation is floor and the fraction `s - i` is
 * exact, so the comparison rounds exactly. lround itself is a libm
 * call, and this runs four times per texel and per pixel.
 */
inline u8
floatToByte(float v)
{
    float s = (v > 0.0f ? std::min(v, 1.0f) : 0.0f) * 255.0f;
    u32 i = u32(s);
    return u8(i + (s - float(i) >= 0.5f ? 1 : 0));
}

inline Rgba8
packColor(ColorF c)
{
    return {floatToByte(c.r), floatToByte(c.g), floatToByte(c.b),
            floatToByte(c.a)};
}

inline ColorF
unpackColor(Rgba8 c)
{
    constexpr float s = 1.0f / 255.0f;
    return {float(c.r) * s, float(c.g) * s, float(c.b) * s, float(c.a) * s};
}

/** Bytes per texel / pixel: four-component RGBA as in Eq. (1). */
inline constexpr u64 kBytesPerTexel = 4;

} // namespace texpim

#endif // TEXPIM_GEOM_COLOR_HH
