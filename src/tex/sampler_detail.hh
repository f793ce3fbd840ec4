/**
 * @file
 * Sampling internals shared by the quad-SoA sampler (sampler_quad.cc)
 * and the scalar reference sampler the tests use as its oracle
 * (tests/support/reference_sampler.cc).
 *
 * The quad path must produce bit-identical results to the oracle, so
 * the per-level geometry and the anisotropic footprint offsets live
 * here once instead of being re-derived (and drifting) in two places.
 * Everything here is pure float math with no state; both samplers call
 * these with identical arguments per fragment, so identical results
 * follow from `-ffp-contract=off` and the single definition.
 */

#ifndef TEXPIM_TEX_SAMPLER_DETAIL_HH
#define TEXPIM_TEX_SAMPLER_DETAIL_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "tex/sampler.hh"
#include "tex/texture.hh"

namespace texpim {
namespace sdetail {

constexpr float kMinFootprint = 1e-6f;

/** Per-level sampling geometry shared by both filtering orders. */
struct LevelGeom
{
    unsigned level;
    int x0, y0;   //!< integer corner of the center bilinear footprint
    float fx, fy; //!< bilinear weights (identical for all samples)
};

inline LevelGeom
levelGeom(const Texture &tex, Vec2 uv, unsigned level)
{
    const TextureImage &img = tex.level(level);
    float sx = uv.x * float(img.width()) - 0.5f;
    float sy = uv.y * float(img.height()) - 0.5f;
    float flx = std::floor(sx);
    float fly = std::floor(sy);
    return {level, int(flx), int(fly), sx - flx, sy - fly};
}

/**
 * Integer texel offsets of the N anisotropic footprint samples at one
 * mip level, written to `out[0..n)`. Sample i sits at
 * t_i = (i + 0.5)/N - 0.5 along the major axis, and the footprint
 * spans exactly N texels of the level (the mip level was chosen as
 * log2(major/N), so the residual footprint is N..2N texels; hardware
 * samples the canonical N).
 *
 * Crucially the offsets depend only on (N, quantized direction) — not
 * on the raw footprint length — so the child-texel set of a parent is
 * a canonical function of the surface's camera angle, which is what
 * makes A-TFIM's angle-thresholded reuse of in-memory results exact
 * for angle-equal pixels (§V-C).
 */
inline void
anisoOffsetsInto(const Texture &tex, const LodInfo &lod, unsigned level,
                 unsigned n, std::pair<int, int> *out)
{
    const TextureImage &img = tex.level(level);
    // Unit direction in this level's texel space, scaled to span N.
    Vec2 d{lod.majorDirUv.x * float(img.width()),
           lod.majorDirUv.y * float(img.height())};
    float len = d.length();
    if (len <= 0.0f)
        d = {1.0f, 0.0f};
    else
        d = d / len;
    float span = lod.footprintSpan;
    for (unsigned i = 0; i < n; ++i) {
        float t = (float(i) + 0.5f) / float(n) - 0.5f;
        out[i] = {int(std::lround(t * span * d.x)),
                  int(std::lround(t * span * d.y))};
    }
}

/**
 * Memoized anisoOffsetsInto: looks the table up in `cache` by the
 * complete input key (direction bits, span bits, N, level dimensions)
 * and copies it to `out`, computing the entry on a miss. Pure
 * memoization of a pure function — results are bit-identical to the
 * direct call for any hit pattern. The reference sampler calls
 * anisoOffsetsInto uncached, so the differential tests check the memo
 * too. Footprints wider than the fixed entry arrays fall through to
 * the direct computation.
 */
inline void
anisoOffsetsCached(const Texture &tex, const LodInfo &lod, unsigned level,
                   unsigned n, AnisoOffsetCache &cache,
                   std::pair<int, int> *out)
{
    if (n > kQuadMaxAniso) {
        anisoOffsetsInto(tex, lod, level, n, out);
        return;
    }
    const TextureImage &img = tex.level(level);
    u32 dx = std::bit_cast<u32>(lod.majorDirUv.x);
    u32 dy = std::bit_cast<u32>(lod.majorDirUv.y);
    u32 sp = std::bit_cast<u32>(lod.footprintSpan);
    u32 w = img.width(), h = img.height();
    u32 hsh = dx * 2654435761u;
    hsh ^= dy * 2246822519u;
    hsh ^= sp * 3266489917u;
    hsh ^= n * 668265263u;
    hsh ^= w * 374761393u + h;
    hsh ^= hsh >> 15;
    AnisoOffsetCache::Entry &e = cache.slots[hsh & (AnisoOffsetCache::kSlots - 1)];
    if (e.n != n || e.dirx != dx || e.diry != dy || e.span != sp ||
        e.w != w || e.h != h) {
        e.dirx = dx;
        e.diry = dy;
        e.span = sp;
        e.n = n;
        e.w = w;
        e.h = h;
        anisoOffsetsInto(tex, lod, level, n, e.offs);
    }
    std::copy(e.offs, e.offs + n, out);
}

} // namespace sdetail
} // namespace texpim

#endif // TEXPIM_TEX_SAMPLER_DETAIL_HH
