/**
 * @file
 * The rendering pipeline: ties geometry processing, tile-based
 * rasterization with hierarchical/early Z, fragment shading with
 * texture filtering (through a pluggable TexturePath), and the ROP
 * into one frame renderer with a shader-cluster timing model.
 *
 * Timing model (see DESIGN.md): 16 clusters process 16x16 fragment
 * tiles round-robin. Within a cluster, fragment ALU work advances a
 * compute frontier; texture requests issue along it and may overlap up
 * to `maxInflightTexRequests` outstanding requests (the massive-
 * multithreading latency tolerance of the unified shaders). A frame
 * ends when every cluster has drained, including ROP writebacks.
 */

#ifndef TEXPIM_GPU_RENDERER_HH
#define TEXPIM_GPU_RENDERER_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/tag_cache.hh"
#include "gpu/framebuffer.hh"
#include "gpu/geometry.hh"
#include "gpu/params.hh"
#include "gpu/raster.hh"
#include "gpu/texture_path.hh"
#include "mem/memory_system.hh"
#include "scene/scene.hh"

namespace texpim {

/** Per-frame results: the quantities the paper's figures are built on. */
struct FrameStats
{
    Cycle frameCycles = 0;    //!< total 3D-rendering time
    Cycle geometryCycles = 0; //!< geometry-phase portion

    u64 texRequests = 0;

    u64 fragmentsCovered = 0;
    u64 fragmentsShaded = 0;
    u64 fragmentsEarlyZKilled = 0;
    u64 trianglesSetup = 0;
    u64 hierZTrianglesSkipped = 0;
    u64 tilesProcessed = 0;

    GeometryStats geom{};

    double avgCameraAngleRad = 0.0;
    double avgAnisoRatio = 0.0;

    // Host wall clock of the simulator itself (for texbench).
    // Not simulated results: never exported by writeSimResultJson.
    double wallPhase1Sec = 0.0; //!< recordFrame: geometry + tile binning
    /** finishFrame up to the end of the replay: frame-start resets,
     *  geometry traffic and the streamed tile record + timing replay. */
    double wallPhase2Sec = 0.0;
    /** Part of wallPhase2Sec the coordinating thread spent waiting
     *  for, or itself recording, the tile the replay chose next. */
    double wallReplayWaitSec = 0.0;

    // Record accounting. Deterministic (pure functions of the scene
    // and the replay order, identical at any gpu.render_threads), but
    // bench-only like the wall fields above.
    u64 recordBytes = 0;        //!< raw record bytes of all tiles
    u64 recordBytesDecoded = 0; //!< the same total (no encoded form)
    /** Peak live record bytes of the streaming window: the largest,
     *  over the replay's steps, sum of the record bytes of every
     *  cluster's next unreplayed tile. The window holds those tiles
     *  and no others, versus recordBytesDecoded for the whole frame. */
    u64 recordBytesPeak = 0;
};

class Renderer
{
  public:
    /**
     * @param params GPU configuration (Table I)
     * @param mem memory system shared by all pipeline traffic
     * @param tex the texture-filtering path for the design under test
     */
    Renderer(const GpuParams &params, MemorySystem &mem, TexturePath &tex);

    /**
     * Render one frame functionally and temporally: recordFrame()
     * then finishFrame(). Tiles stream from the functional record
     * (on params.renderThreads threads) into the serial timing replay
     * through a one-tile-per-cluster window. Every thread count
     * produces bit-identical framebuffers, cycle counts and
     * statistics.
     */
    FrameStats renderFrame(const Scene &scene, FrameBuffer &fb);

    /**
     * A frame whose functional setup has run but whose tiles have not
     * been recorded or replayed. Produced by recordFrame(), consumed
     * by finishFrame(). Keeps the scene and framebuffer it was set up
     * against by reference — both must outlive the job.
     */
    class FrameJob;

    /**
     * Functional setup only: clear the framebuffer, shade, clip and
     * set up the geometry, bin triangles to tiles and build the
     * clusters' tile lists. Touches no simulation state — the memory
     * system, caches, texture-path timing and all statistics are
     * untouched — so a later frame's recordFrame() may run
     * concurrently with an earlier frame's finishFrame() (the
     * inter-frame pipeline of RenderingSimulator::renderSequence).
     */
    std::unique_ptr<FrameJob> recordFrame(const Scene &scene,
                                          FrameBuffer &fb);

    /**
     * Geometry/texture/ROP traffic, the streamed tile record + serial
     * timing replay, and end-of-frame accounting for a set-up frame.
     * Must run on the coordinating thread, and jobs from consecutive
     * recordFrame() calls must be finished in recording order — then
     * results are bit-identical to renderFrame() at any pipeline
     * depth. Consumes the job: its working state is released, except
     * the block census (FrameJob::uniqueBlocks()).
     */
    FrameStats finishFrame(FrameJob &job);

    /** Collect per-tile texel-block footprints while tiles record, for
     *  the sequence reuse accounting; see FrameJob::uniqueBlocks(). */
    void setCollectFrameBlocks(bool on) { collect_frame_blocks_ = on; }

    StatGroup &stats() { return stats_; }

  private:
    /** Sliding window of outstanding texture requests per cluster. */
    class InflightWindow
    {
      public:
        explicit InflightWindow(unsigned depth) : slots_(depth, 0) {}

        /** Earliest cycle a new request may issue (oldest slot free). */
        Cycle oldest() const { return slots_[head_]; }

        void
        push(Cycle complete)
        {
            // Texture results retire to the fragment quads in order,
            // so the sequence of retirement times is monotone; this
            // also keeps oldest() monotone, which the issue logic
            // relies on.
            last_ = std::max(last_, complete);
            slots_[head_] = last_;
            head_ = (head_ + 1) % slots_.size();
        }

        /** Completion cycle of the latest request. */
        Cycle last() const { return last_; }

      private:
        std::vector<Cycle> slots_;
        size_t head_ = 0;
        Cycle last_ = 0;
    };

    struct FrameCtx;   // per-frame working state, defined in renderer.cc
    struct TileWorker; // per-recorder phase-1 scratch, defined in renderer.cc
    struct TileWork;   // one tile's replayed fragment work, renderer.cc
    class TileWindow;  // the record -> replay streaming window, renderer.cc

    /** Geometry, functional half: vertex shading, clipping, triangle
     *  setup. Fills `tris` and returns the compute-cycle cost (vertex
     *  + setup time); touches no simulation state, so it may run off
     *  the coordinating thread. */
    Cycle geometryFunctional(const Scene &scene,
                             std::vector<SetupTriangle> &tris,
                             FrameStats &fs);

    /** Geometry, traffic half: vertex/index fetch through the memory
     *  system. Returns the cycle the last fetch drains. */
    Cycle geometryTraffic(const Scene &scene);

    /** Fill the frame-geometry fields of `ctx` (tile grid, detail
     *  maps, triangle bins, cluster assignment, per-fragment cost)
     *  from the scene and `ctx.tris`. Functional only. */
    void setupFrameCtx(FrameCtx &ctx);

    /** End-of-frame accounting: frame-end resolution, scanout
     *  traffic, stats counters, deterministic profile charges. */
    void finishTail(FrameCtx &ctx, FrameStats &fs);

    /** Record accounting from the per-tile byte counts and the replay
     *  order: recordBytes*. */
    void accountRecords(const FrameCtx &ctx, FrameStats &fs) const;

    /** Phase 1, one tile: rasterize, tile-local early Z, functional
     *  texture sampling into `rec` (empty on entry) and the lookups in
     *  the tile's cluster's texture L1, plus the tile's census blocks
     *  and byte count in `ctx`. Thread-safe across tiles of
     *  distinct clusters (touches only tile-disjoint state, the
     *  caller-owned record and worker scratch, and the cluster's L1);
     *  a cluster's tiles must record one at a time, in list order. */
    void rasterizeTile(FrameCtx &ctx, u32 ti, TileRecord &rec,
                       TileWorker &worker);

    /** Filter one triangle's buffered fragments in 2x2 screen quads,
     *  then emit records in original fragment order. */
    void flushQuadBatch(FrameCtx &ctx, const SetupTriangle &st,
                        unsigned cluster, TileWorker &worker,
                        TileRecord &rec);

    /** Phase 2: the cluster scheduler. Picks tiles in gpu.schedule
     *  order, takes each from the streaming window (recording it
     *  inline or waiting for the pool thread recording it), replays
     *  it through replayTile(), then settles ROP traffic and the
     *  cluster clock. */
    // texpim-lint: replay-root the serial phase-2 scheduler; per-tile
    // and per-request stat updates go through held references
    void replayPhase(FrameCtx &ctx, FrameStats &fs);

    /** Phase 2, one tile: replay the recorded fragments through the
     *  Z/color caches, the in-flight window and the texture path,
     *  accumulating into `w`. */
    void replayTile(FrameCtx &ctx, const TileRecord &rec, unsigned cluster,
                    u32 ti, Cycle tile_start, TileWork &w, FrameStats &fs);

    GpuParams params_;
    MemorySystem &mem_;
    TexturePath &tex_;
    TagCache z_cache_;
    TagCache color_cache_;
    StatGroup stats_;
    StatCounter &frames_;
    StatCounter &fragments_shaded_;
    StatCounter &fragments_early_z_killed_;
    StatCounter &triangles_setup_;
    StatCounter &hier_z_skipped_;
    StatCounter &end_compute_;
    StatCounter &end_windows_;
    StatCounter &end_rop_;
    StatHistogram &tile_cycles_;
    bool collect_frame_blocks_ = false;

    static constexpr Addr kGeometryBase = 0x4000'0000;
};

class Renderer::FrameJob
{
  public:
    ~FrameJob();
    FrameJob(const FrameJob &) = delete;
    FrameJob &operator=(const FrameJob &) = delete;

    const Scene &scene() const;

    /** Sorted unique texel block/line addresses the frame's recorded
     *  streams touch (base blocks plus A-TFIM child blocks). Tiles
     *  record during finishFrame(), so the census is empty before the
     *  job is finished, and empty unless setCollectFrameBlocks(true)
     *  enabled it. */
    std::vector<Addr> uniqueBlocks() const;

  private:
    friend class Renderer;
    FrameJob();

    std::unique_ptr<FrameCtx> ctx_;
    FrameStats fs_{}; //!< setup partials (geometry stats, wallPhase1Sec)
    /** Per-tile census footprints, kept past finishFrame(). */
    std::vector<std::vector<Addr>> tileBlocks_;
};

} // namespace texpim

#endif // TEXPIM_GPU_RENDERER_HH
