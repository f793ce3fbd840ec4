#include "tex/sampler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "tex/sampler_detail.hh"

namespace texpim {

namespace {

using sdetail::kMinFootprint;

/** Next power of two >= v (v in [1, 16]). */
unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Footprint-direction quantization buckets. */
constexpr unsigned kDirBuckets = 8;
constexpr float kTau = 6.283185307179586f;

/**
 * Immutable transcendental tables over computeLod's quantized domains.
 * Every entry is the exact libm call the inline expression used to
 * make, evaluated over the full (small) quantized input range at
 * startup — the argument values are bit-identical (small integers are
 * exact in float, and /2.0f of an integral float equals *0.5f), so the
 * looked-up results are bit-identical too. const after construction
 * (immutable static — no D4 determinism hazard), saving four libm
 * calls per computeLod on the phase-1 hot path.
 */
const struct LodTables
{
    static constexpr float kDegPerRad = 57.29577951308232f;
    float cosDeg[128];    //!< cos(d / kDegPerRad), d = 0..127
    float cosBucket[9];   //!< cos(b * kTau / kDirBuckets), b = -4..4
    float sinBucket[9];   //!< sin(b * kTau / kDirBuckets), b = -4..4
    float exp2Half[129];  //!< exp2(k * 0.5f), k = -64..64

    LodTables()
    {
        for (int d = 0; d < 128; ++d)
            cosDeg[d] = std::cos(float(d) / kDegPerRad);
        for (int b = -4; b <= 4; ++b) {
            cosBucket[b + 4] = std::cos(float(b) * kTau / float(kDirBuckets));
            sinBucket[b + 4] = std::sin(float(b) * kTau / float(kDirBuckets));
        }
        for (int k = -64; k <= 64; ++k)
            exp2Half[k + 64] = std::exp2(float(k) * 0.5f);
    }
} kLodTables;

} // namespace

LodInfo
computeLod(const Texture &tex, const SampleCoords &coords, unsigned max_aniso)
{
    TEXPIM_ASSERT(max_aniso >= 1, "max_aniso must be >= 1");

    float w0 = float(tex.width(0));
    float h0 = float(tex.height(0));
    Vec2 px{coords.ddx.x * w0, coords.ddx.y * h0};
    Vec2 py{coords.ddy.x * w0, coords.ddy.y * h0};
    float lenx = px.length();
    float leny = py.length();

    LodInfo lod;
    float major = std::max({lenx, leny, kMinFootprint});
    float minor = std::max(std::min(lenx, leny), kMinFootprint);

    // The anisotropy ratio is quantized to a power of two and the
    // major-axis direction to kDirBuckets compass directions, as GPU
    // LOD units do. The quantization also makes the anisotropic child
    // set a *canonical* function of (texel, footprint bucket), which
    // is what lets A-TFIM reuse in-memory filtering results across the
    // pixels of a surface exactly (§V-C): pixels whose camera angles
    // agree produce identical child sets for a shared parent texel.
    if (max_aniso > 1) {
        // The anisotropy level derives from the fragment's camera
        // angle when one is known (footprint stretch on a uniformly
        // mapped surface is 1/cos of the view/normal angle): that
        // makes N a function of the same quantity A-TFIM's reuse
        // threshold guards, so its pow2 boundaries are thin bands in
        // angle space rather than wide screen-space bands (§V-C).
        // Coordinates without an angle (unit tests, decals) fall back
        // to the derivative ratio.
        float ratio;
        if (coords.cameraAngle > 0.0f) {
            // Use the *storage-quantized* angle (1-degree buckets,
            // SVII-E, mirroring cache/tag_cache.cc) so every pixel in
            // an angle bucket derives the identical footprint — the
            // property A-TFIM's reuse needs. cos over the 128
            // quantized angles comes from LodTables (bit-identical to
            // calling cos on the quantized angle directly).
            float deg = std::round(std::fabs(coords.cameraAngle) *
                                   LodTables::kDegPerRad);
            int di = int(std::min(deg, 127.0f));
            float c =
                std::max(kLodTables.cosDeg[di], 1.0f / float(max_aniso));
            ratio = 1.0f / c;
        } else {
            ratio = major / minor;
        }
        ratio = std::clamp(ratio, 1.0f, float(max_aniso));
        // Near-isotropic footprints stay at N = 1; beyond that, snap
        // the ceiling to a power of two (hardware aniso levels).
        unsigned r = ratio < 1.5f ? 1u : unsigned(std::ceil(ratio));
        lod.anisoRatio = std::min(nextPow2(r), max_aniso);
        lod.footprintSpan = ratio;
    } else {
        lod.anisoRatio = 1;
        lod.footprintSpan = 1.0f;
    }

    Vec2 major_uv = lenx >= leny ? coords.ddx : coords.ddy;
    float mlen = major_uv.length();
    Vec2 dir = mlen > 0.0f ? major_uv / mlen : Vec2{1.0f, 0.0f};
    float ang = std::atan2(dir.y, dir.x);
    float bucket = std::round(ang / kTau * float(kDirBuckets));
    // ang in [-pi, pi] puts the bucket in [-4, 4]; cos/sin of the nine
    // compass directions come from LodTables (bit-identical).
    int bi = std::clamp(int(bucket), -4, 4) + 4;
    lod.majorDirUv = {kLodTables.cosBucket[bi], kLodTables.sinBucket[bi]};

    // Quantize the footprint length to half-octaves so the child
    // offsets are canonical too. exp2 over the in-range half-octave
    // grid comes from LodTables (bit-identical).
    float k2 =
        std::round(std::log2(std::max(major, kMinFootprint)) * 2.0f);
    float qmajor = k2 >= -64.0f && k2 <= 64.0f
                       ? kLodTables.exp2Half[int(k2) + 64]
                       : std::exp2(k2 / 2.0f);
    lod.majorLenTexels = qmajor;

    float eff = qmajor / float(lod.anisoRatio);
    lod.lambda = std::log2(std::max(eff, 1.0f));
    lod.lambda = std::clamp(lod.lambda, 0.0f, float(tex.levels() - 1));
    return lod;
}

} // namespace texpim
