#include "support/reference_sampler.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "tex/sampler_detail.hh"

namespace texpim {

namespace {

using sdetail::LevelGeom;
using sdetail::levelGeom;

using Offsets = std::vector<std::pair<int, int>>;

/** The N footprint offsets at `level`, computed afresh every call. */
Offsets
anisoOffsets(const Texture &tex, const LodInfo &lod, unsigned level,
             unsigned n)
{
    Offsets out(n);
    sdetail::anisoOffsetsInto(tex, lod, level, n, out.data());
    return out;
}

ColorF
bilinearAt(const Texture &tex, const LevelGeom &g, int ox, int oy)
{
    ColorF c00 = tex.fetchTexelF(g.level, g.x0 + ox, g.y0 + oy);
    ColorF c10 = tex.fetchTexelF(g.level, g.x0 + ox + 1, g.y0 + oy);
    ColorF c01 = tex.fetchTexelF(g.level, g.x0 + ox, g.y0 + oy + 1);
    ColorF c11 = tex.fetchTexelF(g.level, g.x0 + ox + 1, g.y0 + oy + 1);
    return lerp(lerp(c00, c10, g.fx), lerp(c01, c11, g.fx), g.fy);
}

void
recordBilinearFetches(const Texture &tex, const LevelGeom &g, int ox, int oy,
                      std::vector<TexFetch> &fetches)
{
    u8 lvl = u8(g.level);
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox, g.y0 + oy), lvl});
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox + 1, g.y0 + oy), lvl});
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox, g.y0 + oy + 1), lvl});
    fetches.push_back(
        {tex.texelAddr(g.level, g.x0 + ox + 1, g.y0 + oy + 1), lvl});
}

/** The mip levels a linear filter blends and the weight toward l1. */
struct LevelPair
{
    unsigned l0, l1;
    float lw;
};

LevelPair
levelPair(const Texture &tex, const LodInfo &lod, FilterMode mode)
{
    if (mode == FilterMode::Bilinear) {
        unsigned l = unsigned(std::lround(lod.lambda));
        return {l, l, 0.0f};
    }
    unsigned l0 = unsigned(std::floor(lod.lambda));
    return {l0, std::min(l0 + 1, tex.levels() - 1),
            lod.lambda - float(l0)};
}

} // namespace

void
sampleConventional(const Texture &tex, const SampleCoords &coords,
                   FilterMode mode, unsigned max_aniso, SampleResult &out)
{
    out = SampleResult{};

    LodInfo lod = computeLod(tex, coords, max_aniso);
    unsigned n = lod.anisoRatio;
    out.anisoRatio = n;

    auto [l0, l1, lw] = levelPair(tex, lod, mode);
    LevelGeom g0 = levelGeom(tex, coords.uv, l0);
    LevelGeom g1 = levelGeom(tex, coords.uv, l1);
    Offsets off0 = anisoOffsets(tex, lod, l0, n);
    Offsets off1 = anisoOffsets(tex, lod, l1, n);

    bool ewa = mode == FilterMode::TrilinearEwa;
    ColorF acc{0.0f, 0.0f, 0.0f, 0.0f};
    float wsum = 0.0f;
    for (unsigned i = 0; i < n; ++i) {
        recordBilinearFetches(tex, g0, off0[i].first, off0[i].second,
                              out.fetches);
        ColorF c = bilinearAt(tex, g0, off0[i].first, off0[i].second);
        if (l1 != l0) {
            recordBilinearFetches(tex, g1, off1[i].first, off1[i].second,
                                  out.fetches);
            ColorF c1 = bilinearAt(tex, g1, off1[i].first, off1[i].second);
            c = lerp(c, c1, lw);
        }
        // EWA weights the footprint samples by a Gaussian along the
        // major axis; the reorderable box filter weights them equally.
        float t = (float(i) + 0.5f) / float(n) - 0.5f;
        float w = ewa ? std::exp(-5.0f * t * t) : 1.0f;
        acc = acc + c * w;
        wsum += w;
    }
    out.color = acc * (1.0f / wsum);
    // One weighted MAC per texel plus the level/aniso combines.
    out.filterOps = unsigned(out.fetches.size()) + n + 2;
}

void
sampleDecomposed(const Texture &tex, const SampleCoords &coords,
                 FilterMode mode, unsigned max_aniso,
                 DecomposedSampleResult &out)
{
    out = DecomposedSampleResult{};

    TEXPIM_ASSERT(mode == FilterMode::Bilinear ||
                      mode == FilterMode::Trilinear,
                  "A-TFIM decomposition requires an equal-weight linear "
                  "filter mode (Eq. (3) does not hold for EWA weights)");

    LodInfo lod = computeLod(tex, coords, max_aniso);
    unsigned n = lod.anisoRatio;
    out.anisoRatio = n;

    auto [l0, l1, lw] = levelPair(tex, lod, mode);
    static constexpr int kCorners[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};

    ColorF per_level[2];
    unsigned levels[2] = {l0, l1};
    unsigned num_levels = (l1 != l0) ? 2u : 1u;
    out.numLevels = num_levels;
    out.levelWeight = num_levels == 2 ? lw : 0.0f;
    out.parents.resize(size_t(num_levels) * 4);

    for (unsigned li = 0; li < num_levels; ++li) {
        unsigned l = levels[li];
        LevelGeom g = levelGeom(tex, coords.uv, l);
        out.fx[li] = g.fx;
        out.fy[li] = g.fy;
        Offsets offs = anisoOffsets(tex, lod, l, n);

        ColorF corner_vals[4];
        for (unsigned j = 0; j < 4; ++j) {
            ParentTexel &parent = out.parents[size_t(li) * 4 + j];
            parent.addr = tex.texelAddr(l, g.x0 + kCorners[j][0],
                                        g.y0 + kCorners[j][1]);
            ColorF acc{0.0f, 0.0f, 0.0f, 0.0f};
            for (unsigned i = 0; i < n; ++i) {
                int cx = g.x0 + offs[i].first + kCorners[j][0];
                int cy = g.y0 + offs[i].second + kCorners[j][1];
                parent.children.push_back(tex.texelAddr(l, cx, cy));
                acc = acc + tex.fetchTexelF(l, cx, cy);
            }
            parent.value = acc * (1.0f / float(n));
            corner_vals[j] = parent.value;
        }

        per_level[li] = lerp(lerp(corner_vals[0], corner_vals[1], g.fx),
                             lerp(corner_vals[2], corner_vals[3], g.fx),
                             g.fy);
        out.hostFilterOps += 4;
    }

    out.color = num_levels == 2 ? lerp(per_level[0], per_level[1], lw)
                                : per_level[0];
    out.hostFilterOps += num_levels == 2 ? 2 : 0;
}

} // namespace texpim
