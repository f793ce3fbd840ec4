/**
 * @file
 * Functional texture filtering: bilinear / trilinear plus
 * anisotropic filtering, in both the conventional order (bilinear →
 * trilinear → anisotropic, Fig. 3) and the A-TFIM-decomposed order
 * (anisotropic first, §V-B), which splits every sample into *parent
 * texels* computed in the HMC from *child texels*. The two quad-SoA
 * kernels below are the library's only sampler; the scalar reference
 * the tests compare them against lives in
 * tests/support/reference_sampler.hh.
 *
 * Anisotropic footprint samples are spaced at integer texel offsets
 * along the major axis. That choice keeps the bilinear weights of all
 * footprint samples identical to the center sample's, which is what
 * makes the paper's Eq. (3) reordering hold exactly (up to float
 * rounding) — see DESIGN.md.
 */

#ifndef TEXPIM_TEX_SAMPLER_HH
#define TEXPIM_TEX_SAMPLER_HH

#include <utility>

#include "geom/color.hh"
#include "geom/vec.hh"
#include "tex/texture.hh"

namespace texpim {

enum class FilterMode : u8 {
    Bilinear,
    Trilinear,
    /**
     * Trilinear with Gaussian-weighted anisotropic samples (an EWA
     * [Mavridis & Papaioannou] reference). Equation (3)'s reordering
     * proof requires *equal* sample weights, so A-TFIM cannot execute
     * this mode — it exists as the quality yardstick the ablation
     * benches compare the reorderable box filter against.
     */
    TrilinearEwa,
};

/** Texture coordinates plus screen-space derivatives for one fragment. */
struct SampleCoords
{
    Vec2 uv{};  //!< normalized texture coordinates
    Vec2 ddx{}; //!< d(uv)/dx across one pixel
    Vec2 ddy{}; //!< d(uv)/dy across one pixel
    float cameraAngle = 0.0f; //!< view/surface angle in radians (§V-C)
};

/** LOD and anisotropy derived from the screen-space derivatives. */
struct LodInfo
{
    unsigned anisoRatio = 1; //!< N, clamped to the max anisotropic level
    float lambda = 0.0f;     //!< mip LOD after the aniso division
    Vec2 majorDirUv{};       //!< unit major-axis direction in uv space
    float majorLenTexels = 0.0f; //!< major-axis length in level-0 texels

    /** Footprint span in chosen-level texels the N samples spread
     *  over; follows the (quantized) camera angle continuously so
     *  that cross-angle A-TFIM reuse shows the true filtering error. */
    float footprintSpan = 1.0f;
};

/** Compute LOD/anisotropy. `max_aniso` = 1 disables anisotropic
 *  filtering (the paper's "aniso disabled" experiments). */
LodInfo computeLod(const Texture &tex, const SampleCoords &coords,
                   unsigned max_aniso);

// ---------------------------------------------------------------------
// Quad-SoA sampling (the mesa-llvmpipe lp_bld_sample_soa idiom): the
// renderer batches the shaded fragments of one triangle into 2x2
// screen quads whose lanes share texture, filter mode and max
// anisotropy, and the samplers below filter up to four lanes per call
// with structure-of-arrays accumulation. Every per-lane FP expression
// tree is identical to the scalar reference sampler's
// (tests/support/reference_sampler.cc: same helpers, same evaluation
// order, -ffp-contract=off), so results are bit-identical — the
// property the differential test suite (tests/tex/test_sampler_quad.cc)
// pins down.
// ---------------------------------------------------------------------

constexpr unsigned kQuadLanes = 4;

/** Hard bound on the anisotropic ratio the quad path's fixed lane
 *  arrays accommodate (2x the largest defaultMaxAniso). */
constexpr unsigned kQuadMaxAniso = 32;

/** Max texel fetches one lane records: N samples x 4 corners x 2 mip
 *  levels. */
constexpr unsigned kQuadMaxFetches = kQuadMaxAniso * 4 * 2;

/** Per-lane outputs of sampleConventionalQuad, SoA layout. */
struct QuadConvOut
{
    ColorF color[kQuadLanes];
    Addr route[kQuadLanes]; //!< first (unsorted) texel fetch address
    u32 texels[kQuadLanes];
    u32 filterOps[kQuadLanes];
    u32 anisoRatio[kQuadLanes];
    u32 blockCount[kQuadLanes]; //!< after sort + dedup
    Addr blocks[kQuadLanes][kQuadMaxFetches]; //!< masked, sorted, unique
};

constexpr unsigned kQuadMaxParents = 8; //!< 4 corners x up to 2 levels
constexpr unsigned kQuadMaxChildren = kQuadMaxParents * kQuadMaxAniso;

/** Per-lane outputs of sampleDecomposedQuad, SoA layout. Children of
 *  parent p occupy childBlocks[lane][p*N .. p*N+N) where N is the
 *  lane's anisoRatio (every parent of a lane has exactly N children). */
struct QuadDecompOut
{
    u32 anisoRatio[kQuadLanes];
    u32 hostFilterOps[kQuadLanes];
    u8 numLevels[kQuadLanes];
    float fx[kQuadLanes][2];
    float fy[kQuadLanes][2];
    float levelWeight[kQuadLanes];
    u32 parentCount[kQuadLanes];
    Addr parentAddr[kQuadLanes][kQuadMaxParents];
    ColorF parentValue[kQuadLanes][kQuadMaxParents];
    Addr childBlocks[kQuadLanes][kQuadMaxChildren]; //!< masked, dup-preserving
};

/**
 * Memo table for the anisotropic footprint offsets
 * (sdetail::anisoOffsetsInto): the offsets are a pure function of
 * (major direction, footprint span, N, level size), and the LOD unit
 * quantizes the direction to compass buckets and N to powers of two,
 * so a handful of distinct tables cover whole surfaces — while a cold
 * computation costs a sqrt plus 2N lround libm calls per mip level of
 * every request. Direct-mapped, per-thread (inside SamplerScratch);
 * collisions merely recompute, so hit patterns never affect results.
 */
struct AnisoOffsetCache
{
    struct Entry
    {
        u32 dirx = 0, diry = 0, span = 0; //!< float bits of the key
        u32 n = 0;                        //!< 0 marks an empty slot
        u32 w = 0, h = 0;                 //!< level dimensions
        std::pair<int, int> offs[kQuadMaxAniso];
    };
    static constexpr u32 kSlots = 64;
    Entry slots[kSlots];
};

/**
 * Caller-owned scratch buffers reused across fragments, so the hot
 * sampling loops perform no per-fragment heap allocation after warmup.
 * One instance per thread: the sampler itself is stateless, and the
 * parallel phase-1 renderer hands each tile worker its own scratch.
 */
struct SamplerScratch
{
    AnisoOffsetCache offsetCache; //!< footprint-offset memo table

    // Quad-path result buffers (TexturePath::sampleQuad overrides).
    QuadConvOut quadConv;
    QuadDecompOut quadDecomp;
};

/**
 * Conventional filtering of up to kQuadLanes lanes sharing (texture,
 * mode, max_aniso), bit-identical per lane to the scalar reference.
 * Instead of a per-fetch trace, each lane's fetch addresses are masked
 * with `block_mask` (the caller's cache-line / DRAM-burst mask),
 * sorted and deduplicated in place in `out.blocks`: the canonical
 * block list the texture paths replay.
 */
void sampleConventionalQuad(const Texture &tex, const SampleCoords *coords,
                            unsigned count, FilterMode mode,
                            unsigned max_aniso, Addr block_mask,
                            QuadConvOut &out, AnisoOffsetCache &ocache);

/**
 * A-TFIM-decomposed filtering of up to kQuadLanes lanes, bit-identical
 * per lane to the scalar reference in every field it outputs. It outputs
 * no final color: replay recombines the parent values
 * (TexSampleRec::combine), which may be reused stale ones. Child
 * addresses are masked with `child_mask` (DRAM-burst granularity) but
 * kept duplicate-preserving and in per-parent order, exactly as
 * AtfimTexturePath::sampleQuad records them.
 */
void sampleDecomposedQuad(const Texture &tex, const SampleCoords *coords,
                          unsigned count, FilterMode mode,
                          unsigned max_aniso, Addr child_mask,
                          QuadDecompOut &out, AnisoOffsetCache &ocache);

} // namespace texpim

#endif // TEXPIM_TEX_SAMPLER_HH
