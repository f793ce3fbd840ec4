/**
 * @file
 * Scalar reference sampler: the test-side oracle for the library's
 * quad-SoA kernels (tex/sampler.hh). It filters one fragment per call
 * in the two orders of the paper and records every texel it touches:
 *
 *  - sampleConventional: bilinear → trilinear → anisotropic (Fig. 3),
 *    with the full texel-fetch trace;
 *  - sampleDecomposed: anisotropic first (child texels → parent texels,
 *    the in-memory half of A-TFIM), then bilinear/trilinear over the
 *    parents (the host half, §V-B), with every parent's children.
 *
 * The differential suite (tests/tex/test_sampler_quad.cc) holds the
 * quad kernels to these results bit for bit, and the reorder property
 * tests check Eq. (3) between the two orders. The oracle shares only
 * computeLod and the pure sdetail helpers with the kernels: it takes no
 * SamplerScratch, reuses no buffer capacity across calls, and computes
 * the footprint offsets uncached (sdetail::anisoOffsetsInto), so the
 * kernels' AnisoOffsetCache is checked too.
 */

#ifndef TEXPIM_TESTS_SUPPORT_REFERENCE_SAMPLER_HH
#define TEXPIM_TESTS_SUPPORT_REFERENCE_SAMPLER_HH

#include <vector>

#include "geom/color.hh"
#include "tex/sampler.hh"
#include "tex/texture.hh"

namespace texpim {

/** One texel fetch in the conventional filtering order. */
struct TexFetch
{
    Addr addr;
    u8 level;
};

/** Result of conventional (baseline) filtering. */
struct SampleResult
{
    ColorF color{};
    unsigned anisoRatio = 1;       //!< N (1 = isotropic)
    std::vector<TexFetch> fetches; //!< every texel touched, in order
    unsigned filterOps = 0;        //!< weighted-MAC count for energy
};

/** A parent texel and the child texels that approximate it (§V-A). */
struct ParentTexel
{
    Addr addr;                  //!< address with anisotropic filtering off
    ColorF value{};             //!< anisotropic average of the children
    std::vector<Addr> children; //!< child texel addresses in the HMC
};

/** Result of A-TFIM-decomposed filtering. */
struct DecomposedSampleResult
{
    ColorF color{};
    unsigned anisoRatio = 1;
    std::vector<ParentTexel> parents; //!< 4 (bilinear) or 8 (trilinear),
                                      //!< corners (0,0),(1,0),(0,1),(1,1)
                                      //!< per level
    unsigned hostFilterOps = 0; //!< bilinear/trilinear MACs on the GPU

    // The host-side recombination weights.
    unsigned numLevels = 1;
    float fx[2] = {0.0f, 0.0f}; //!< bilinear x-weight per level
    float fy[2] = {0.0f, 0.0f}; //!< bilinear y-weight per level
    float levelWeight = 0.0f;   //!< trilinear blend toward level 1
};

/** Conventional filtering (Fig. 3 order); overwrites `out`. */
void sampleConventional(const Texture &tex, const SampleCoords &coords,
                        FilterMode mode, unsigned max_aniso,
                        SampleResult &out);

/**
 * A-TFIM-decomposed filtering (§V); overwrites `out`. Produces the
 * same color as sampleConventional up to float rounding — the property
 * §V-B proves. Bilinear and Trilinear modes only.
 */
void sampleDecomposed(const Texture &tex, const SampleCoords &coords,
                      FilterMode mode, unsigned max_aniso,
                      DecomposedSampleResult &out);

} // namespace texpim

#endif // TEXPIM_TESTS_SUPPORT_REFERENCE_SAMPLER_HH
