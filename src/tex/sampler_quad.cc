/**
 * @file
 * Quad-SoA sampler, the library's only one: up to four fragments of
 * one 2x2 screen quad filtered per call, with per-mip-level MipView
 * accessors hoisted out of the texel loops and fetch records written
 * straight into fixed per-lane arrays (no per-fragment allocation).
 *
 * FP-identity rules (see DESIGN.md "Quad-SoA sampling"):
 *  - every per-lane float expression is the same tree the scalar
 *    reference sampler (tests/support/reference_sampler.cc) evaluates,
 *    in the same order (-ffp-contract=off keeps the compiler from
 *    fusing them differently);
 *  - transcendentals (computeLod) stay per-lane scalar calls;
 *  - restructured loops only ever reorder work *across* lanes or
 *    corners whose accumulation chains are independent, never within
 *    one chain.
 * The differential suite (tests/tex/test_sampler_quad.cc) compares
 * every output field against the scalar reference bit-for-bit.
 */

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "tex/sampler.hh"
#include "tex/sampler_detail.hh"

namespace texpim {

using sdetail::LevelGeom;

// texpim-lint: phase-root quad sampler entry, called from phase-1
// worker threads
void
sampleConventionalQuad(const Texture &tex, const SampleCoords *coords,
                       unsigned count, FilterMode mode, unsigned max_aniso,
                       Addr block_mask, QuadConvOut &out,
                       AnisoOffsetCache &ocache)
{
    TEXPIM_ASSERT(count >= 1 && count <= kQuadLanes, "bad quad lane count ",
                  count);

    // Per-lane LOD / level geometry / footprint offsets. The
    // transcendental-heavy computeLod stays a per-lane scalar call:
    // vectorizing libm calls would change results.
    unsigned n[kQuadLanes], l0[kQuadLanes], l1[kQuadLanes];
    float lw[kQuadLanes];
    LevelGeom g0[kQuadLanes], g1[kQuadLanes];
    std::pair<int, int> off0[kQuadLanes][kQuadMaxAniso];
    std::pair<int, int> off1[kQuadLanes][kQuadMaxAniso];
    MipView v0[kQuadLanes], v1[kQuadLanes];
    unsigned max_n = 1;
    for (unsigned q = 0; q < count; ++q) {
        LodInfo lod = computeLod(tex, coords[q], max_aniso);
        n[q] = lod.anisoRatio;
        TEXPIM_ASSERT(n[q] <= kQuadMaxAniso,
                      "aniso ratio ", n[q], " exceeds the quad sampler's ",
                      kQuadMaxAniso, "-sample lane arrays");
        max_n = std::max(max_n, n[q]);
        if (mode == FilterMode::Bilinear) {
            l0[q] = l1[q] = unsigned(std::lround(lod.lambda));
            lw[q] = 0.0f;
        } else {
            l0[q] = unsigned(std::floor(lod.lambda));
            l1[q] = std::min(l0[q] + 1, tex.levels() - 1);
            lw[q] = lod.lambda - float(l0[q]);
        }
        g0[q] = sdetail::levelGeom(tex, coords[q].uv, l0[q]);
        g1[q] = sdetail::levelGeom(tex, coords[q].uv, l1[q]);
        sdetail::anisoOffsetsCached(tex, lod, l0[q], n[q], ocache, off0[q]);
        sdetail::anisoOffsetsCached(tex, lod, l1[q], n[q], ocache, off1[q]);
        v0[q] = tex.mipView(l0[q]);
        v1[q] = l1[q] != l0[q] ? tex.mipView(l1[q]) : v0[q];
        out.anisoRatio[q] = n[q];
    }

    const bool ewa = mode == FilterMode::TrilinearEwa;
    ColorF acc[kQuadLanes];
    float wsum[kQuadLanes];
    u32 nb[kQuadLanes], tx[kQuadLanes];
    for (unsigned q = 0; q < count; ++q) {
        acc[q] = ColorF{0.0f, 0.0f, 0.0f, 0.0f};
        wsum[q] = 0.0f;
        nb[q] = 0;
        tx[q] = 0;
    }

    // The canonical per-sample block list is the sorted unique set of
    // the masked fetch addresses, so duplicates may be dropped at
    // insertion: deduplicating while building and sorting the survivors
    // yields the same list the scalar path's sort + unique over the raw
    // trace produces. Adjacent taps mostly hit the block just pushed,
    // so the scan is short and the final sort runs over a handful of
    // unique blocks instead of every fetch.
    auto push_block = [](Addr *bq, u32 &nbq, Addr b) {
        // Newest-first scan: repeats overwhelmingly hit the block
        // pushed most recently (spatially adjacent taps).
        for (u32 k = nbq; k-- > 0;)
            if (bq[k] == b)
                return;
        bq[nbq++] = b;
    };

    // Footprint-sample-major over the quad: lane accumulation chains
    // are independent, so interleaving lanes at one footprint index is
    // bit-safe, and the 2x2 lanes' fetches land in the same mip
    // neighborhoods (the SoA locality win).
    for (unsigned i = 0; i < max_n; ++i) {
        for (unsigned q = 0; q < count; ++q) {
            if (i >= n[q])
                continue;
            int bx = g0[q].x0 + off0[q][i].first;
            int by = g0[q].y0 + off0[q][i].second;
            MipView::Tap2x2 t0 = v0[q].tap(bx, by);
            if (i == 0)
                out.route[q] = t0.a[0];
            Addr *bq = out.blocks[q];
            push_block(bq, nb[q], t0.a[0] & block_mask);
            push_block(bq, nb[q], t0.a[1] & block_mask);
            push_block(bq, nb[q], t0.a[2] & block_mask);
            push_block(bq, nb[q], t0.a[3] & block_mask);
            tx[q] += 4;

            ColorF c00 = v0[q].fetchWrapped(t0.wx0, t0.wy0);
            ColorF c10 = v0[q].fetchWrapped(t0.wx1, t0.wy0);
            ColorF c01 = v0[q].fetchWrapped(t0.wx0, t0.wy1);
            ColorF c11 = v0[q].fetchWrapped(t0.wx1, t0.wy1);
            ColorF c = lerp(lerp(c00, c10, g0[q].fx),
                            lerp(c01, c11, g0[q].fx), g0[q].fy);

            if (l1[q] != l0[q]) {
                int cx = g1[q].x0 + off1[q][i].first;
                int cy = g1[q].y0 + off1[q][i].second;
                MipView::Tap2x2 t1 = v1[q].tap(cx, cy);
                push_block(bq, nb[q], t1.a[0] & block_mask);
                push_block(bq, nb[q], t1.a[1] & block_mask);
                push_block(bq, nb[q], t1.a[2] & block_mask);
                push_block(bq, nb[q], t1.a[3] & block_mask);
                tx[q] += 4;

                ColorF d00 = v1[q].fetchWrapped(t1.wx0, t1.wy0);
                ColorF d10 = v1[q].fetchWrapped(t1.wx1, t1.wy0);
                ColorF d01 = v1[q].fetchWrapped(t1.wx0, t1.wy1);
                ColorF d11 = v1[q].fetchWrapped(t1.wx1, t1.wy1);
                ColorF c1 = lerp(lerp(d00, d10, g1[q].fx),
                                 lerp(d01, d11, g1[q].fx), g1[q].fy);
                c = lerp(c, c1, lw[q]);
            }

            float t = (float(i) + 0.5f) / float(n[q]) - 0.5f;
            float w = ewa ? std::exp(-5.0f * t * t) : 1.0f;
            acc[q] = acc[q] + c * w;
            wsum[q] += w;
        }
    }

    for (unsigned q = 0; q < count; ++q) {
        out.color[q] = acc[q] * (1.0f / wsum[q]);
        out.texels[q] = tx[q];
        // One weighted MAC per texel plus the level/aniso combines.
        out.filterOps[q] = tx[q] + n[q] + 2;
        // Canonical block list: already unique (push_block), so a sort
        // alone yields the scalar path's sorted/deduplicated list.
        // tie-break: block addresses are u64 (total order); duplicates
        // are interchangeable values and were dropped at insertion.
        Addr *bq = out.blocks[q];
        std::sort(bq, bq + nb[q]);
        out.blockCount[q] = nb[q];
    }
}

// texpim-lint: phase-root quad sampler entry, called from phase-1
// worker threads
void
sampleDecomposedQuad(const Texture &tex, const SampleCoords *coords,
                     unsigned count, FilterMode mode, unsigned max_aniso,
                     Addr child_mask, QuadDecompOut &out,
                     AnisoOffsetCache &ocache)
{
    TEXPIM_ASSERT(count >= 1 && count <= kQuadLanes, "bad quad lane count ",
                  count);
    TEXPIM_ASSERT(mode == FilterMode::Bilinear ||
                      mode == FilterMode::Trilinear,
                  "A-TFIM decomposition requires an equal-weight linear "
                  "filter mode (Eq. (3) does not hold for EWA weights)");

    for (unsigned q = 0; q < count; ++q) {
        LodInfo lod = computeLod(tex, coords[q], max_aniso);
        unsigned n = lod.anisoRatio;
        TEXPIM_ASSERT(n <= kQuadMaxAniso,
                      "aniso ratio ", n, " exceeds the quad sampler's ",
                      kQuadMaxAniso, "-sample lane arrays");
        out.anisoRatio[q] = n;

        unsigned l0, l1;
        float lw;
        if (mode == FilterMode::Bilinear) {
            l0 = l1 = unsigned(std::lround(lod.lambda));
            lw = 0.0f;
        } else {
            l0 = unsigned(std::floor(lod.lambda));
            l1 = std::min(l0 + 1, tex.levels() - 1);
            lw = lod.lambda - float(l0);
        }

        unsigned levels[2] = {l0, l1};
        unsigned num_levels = (l1 != l0) ? 2u : 1u;
        out.numLevels[q] = u8(num_levels);
        out.levelWeight[q] = num_levels == 2 ? lw : 0.0f;
        out.parentCount[q] = num_levels * 4;
        out.hostFilterOps[q] = 0;
        out.fx[q][0] = out.fx[q][1] = 0.0f;
        out.fy[q][0] = out.fy[q][1] = 0.0f;

        std::pair<int, int> offs[kQuadMaxAniso];
        for (unsigned li = 0; li < num_levels; ++li) {
            unsigned l = levels[li];
            LevelGeom g = sdetail::levelGeom(tex, coords[q].uv, l);
            MipView v = tex.mipView(l);
            out.fx[q][li] = g.fx;
            out.fy[q][li] = g.fy;
            sdetail::anisoOffsetsCached(tex, lod, l, n, ocache, offs);

            // Corner-minor, footprint-sample-major: the four corners'
            // accumulation chains are independent and their texels
            // adjacent, so the per-corner order over i (the chain that
            // must match the scalar path) is preserved while fetches
            // vectorize across corners.
            ColorF acc[4] = {ColorF{0.0f, 0.0f, 0.0f, 0.0f},
                             ColorF{0.0f, 0.0f, 0.0f, 0.0f},
                             ColorF{0.0f, 0.0f, 0.0f, 0.0f},
                             ColorF{0.0f, 0.0f, 0.0f, 0.0f}};
            Addr *cb = out.childBlocks[q];
            for (unsigned i = 0; i < n; ++i) {
                int ox = g.x0 + offs[i].first;
                int oy = g.y0 + offs[i].second;
                // tap() corner order (a00, a10, a01, a11) matches
                // kCorners, so index j addresses the same texel the
                // per-corner addr() calls would.
                MipView::Tap2x2 t = v.tap(ox, oy);
                const u32 cwx[4] = {t.wx0, t.wx1, t.wx0, t.wx1};
                const u32 cwy[4] = {t.wy0, t.wy0, t.wy1, t.wy1};
                for (unsigned j = 0; j < 4; ++j) {
                    cb[(li * 4 + j) * n + i] = t.a[j] & child_mask;
                    acc[j] = acc[j] + v.fetchWrapped(cwx[j], cwy[j]);
                }
            }

            MipView::Tap2x2 pt = v.tap(g.x0, g.y0);
            for (unsigned j = 0; j < 4; ++j) {
                unsigned p = li * 4 + j;
                out.parentAddr[q][p] = pt.a[j];
                out.parentValue[q][p] = acc[j] * (1.0f / float(n));
            }
            out.hostFilterOps[q] += 4;
        }

        out.hostFilterOps[q] += num_levels == 2 ? 2 : 0;
    }
}

} // namespace texpim
