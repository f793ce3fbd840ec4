/**
 * @file
 * Record/replay types for the two-phase renderer.
 *
 * Phase 1 (functional, parallel) rasterizes every tile independently:
 * coverage, tile-local early Z, shading terms, the *functional* half
 * of texture filtering and the lookups in the tile's cluster's private
 * texture L1 run on a worker pool, and everything the timing model
 * will need is captured in per-tile records — per-fragment shading
 * terms plus, per texture request, its fetch slice of
 * ReplayStream::blocks (the deduplicated cache lines / DRAM bursts of a
 * conventional path, L1 misses first, or the child bursts of an A-TFIM
 * sample's parents), its L1 outcome, and either the functional filter
 * color or the A-TFIM parent decomposition.
 *
 * Phase 2 (timing, serial) replays the records through the cluster
 * clocks, in-flight windows, shared caches, memory system and PIM
 * paths in one fixed order — tiles in gpu.schedule order, fragments
 * in raster order within a tile — so cycle counts, every statistic,
 * and A-TFIM's state-dependent angle-reuse image are bit-identical at
 * any worker count.
 *
 * The two phases of one frame stream: a tile is recorded into its
 * cluster's window slot shortly before the replay reaches it and the
 * slot is reused once the replay is done with it (see
 * Renderer::TileWindow), so a frame never holds more than one record
 * per cluster; the same window hands each cluster's L1 from the
 * recorder of one of its tiles to the next. The flattened layout
 * (per-tile arrays indexed by offset/count pairs instead of
 * per-fragment vectors) keeps phase 1 free of per-fragment heap
 * allocation, and a reused slot's arrays keep their capacity. The
 * quad kernels append their samples to the tile's stream directly, so
 * a sample is written once, where replay reads it; fragments point at
 * their samples by index.
 */

#ifndef TEXPIM_GPU_REPLAY_HH
#define TEXPIM_GPU_REPLAY_HH

#include <vector>

#include "common/types.hh"
#include "geom/color.hh"

namespace texpim {

/** One recorded A-TFIM parent texel (§V): address and fresh value.
 *  Every parent of a sample has exactly the sample's anisoRatio
 *  children; parent p's child bursts are
 *  blocks[blockOff + p·N, blockOff + (p+1)·N) of its sample. */
struct ParentRec
{
    Addr addr = 0;     //!< parent texel address (aniso disabled)
    ColorF value{};    //!< freshly computed anisotropic average
};

/**
 * The record of one texture request's functional sampling — everything
 * a TexturePath::replay() needs to reproduce its timing, statistics
 * and (for A-TFIM) its state-dependent output color without re-running
 * the filter math.
 */
struct TexSampleRec
{
    ColorF color{};    //!< functional filter result (conventional
                       //!< paths; A-TFIM recombines its parents)
    Addr route = 0;    //!< package routing address (first texel fetch)
    u32 blockOff = 0;  //!< first entry in ReplayStream::blocks: lines /
                       //!< bursts (conventional paths) or the
                       //!< parent-major child bursts (A-TFIM)
    u32 blockCount = 0; //!< host: L1-missing lines once recordL1 ran;
                        //!< A-TFIM: parentCount · anisoRatio
    u32 texels = 0;    //!< texel fetches before line/block coalescing
    u32 filterOps = 0;
    u32 anisoRatio = 1; //!< N of computeLod; a fragment's base sample's
                        //!< N feeds the frame's avg_aniso_ratio

    // A-TFIM decomposition (unused by the conventional paths).
    u32 parentOff = 0; //!< first entry in ReplayStream::parents
    u32 parentCount = 0;
    u32 hostFilterOps = 0;
    u8 numLevels = 1;

    // Record-side texture L1 outcome (TexturePath::recordL1), in the
    // bytes after numLevels. Host paths: l1Hits lines hit, l1Cross of
    // them warm from an earlier frame, and the blocks slice holds the
    // missing lines first (blockCount of them). A-TFIM: bit p of each
    // mask is parent p's L1 hit, hit on a line warm from an earlier
    // frame, or angle miss.
    u8 l1Hits = 0;  //!< host: hit count; A-TFIM: hit mask
    u8 l1Cross = 0; //!< host: cross-epoch hit count; A-TFIM: its mask
    u8 l1Angle = 0; //!< A-TFIM: angle-miss mask
    float fx[2] = {0.0f, 0.0f};
    float fy[2] = {0.0f, 0.0f};
    float levelWeight = 0.0f;

    /** Host-side bilinear/trilinear combine of four parent values per
     *  level (the expression tree the reference sampler's decomposed
     *  order evaluates, so replayed colors match it bit-for-bit). */
    ColorF
    combine(const ColorF *parent_values) const
    {
        ColorF lv[2];
        for (unsigned l = 0; l < numLevels; ++l) {
            const ColorF *c = parent_values + l * 4;
            lv[l] = lerp(lerp(c[0], c[1], fx[l]), lerp(c[2], c[3], fx[l]),
                         fy[l]);
        }
        return numLevels == 2 ? lerp(lv[0], lv[1], levelWeight) : lv[0];
    }
};

/** A batch of recorded texture requests with their flattened streams. */
struct ReplayStream
{
    std::vector<TexSampleRec> samples;
    std::vector<Addr> blocks;       //!< fetch slices, per sample
    std::vector<ParentRec> parents; //!< A-TFIM parents, per sample

    void
    clear()
    {
        samples.clear();
        blocks.clear();
        parents.clear();
    }
};

/** One covered fragment, in tile rasterization order. */
struct FragRecord
{
    static constexpr u8 kShaded = 1;    //!< passed the early-Z test
    static constexpr u8 kHasDetail = 2; //!< second (detail) tex layer

    u16 x = 0, y = 0;   //!< absolute pixel coordinates
    u8 flags = 0;
    float angle = 0.0f; //!< camera angle (radians)
    float diffuse = 1.0f;
    u32 sample = 0;     //!< base request in ReplayStream::samples
    u32 detail = 0;     //!< detail request, when kHasDetail
};

// recordBytes and the window peak are sizeof-based: a layout drift
// must be a deliberate change, not a silent one.
static_assert(sizeof(ParentRec) == 24);
static_assert(sizeof(FragRecord) == 24);
static_assert(sizeof(TexSampleRec) == 80);

/** Everything phase 1 recorded for one tile. */
// texpim-lint: caller-owned one window slot's record, written only by
// the recorder that claimed the slot's tile
struct TileRecord
{
    std::vector<FragRecord> frags;
    ReplayStream stream;
    u64 hierZSkipped = 0; //!< triangles skipped by hierarchical Z

    /** Empty the record, keeping the arrays' capacity for reuse. */
    void
    clear()
    {
        frags.clear();
        stream.clear();
        hierZSkipped = 0;
    }

    /** In-memory bytes of the record arrays (size-based — the
     *  bandwidth the replay of this tile touches). */
    u64 sizeBytes() const;
};

} // namespace texpim

#endif // TEXPIM_GPU_REPLAY_HH
