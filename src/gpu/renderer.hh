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
    u64 texLatencySum = 0; //!< texture-filtering cycles (see TexturePath)

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
    double wallPhase1Sec = 0.0; //!< functional raster phase
    double wallPhase2Sec = 0.0; //!< timing replay phase
    u64 recordBytes = 0;        //!< encoded replay-stream bytes (all tiles)
    u64 recordBytesDecoded = 0; //!< decoded (raw-array) record bytes
    u64 recordStreamHash = 0;   //!< FNV-1a over encoded tiles, tile order
    /** Largest single-tile decoded record during replay: the peak of
     *  the decode-on-demand scratch, versus recordBytesDecoded which
     *  is what holding every tile decoded at once would cost.
     *  Deterministic (the replay is serial), but bench-only like the
     *  fields above. */
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
     * then finishFrame(). Phase 1 rasterizes tiles (on
     * params.renderThreads worker threads) recording per-tile replay
     * streams; phase 2 replays them serially through the timing
     * model. Every thread count produces bit-identical framebuffers,
     * cycle counts and statistics.
     */
    FrameStats renderFrame(const Scene &scene, FrameBuffer &fb);

    /**
     * A frame whose functional phase has run but whose timing replay
     * has not. Produced by recordFrame(), consumed by finishFrame().
     * Keeps the scene and framebuffer it was recorded against by
     * reference — both must outlive the job.
     */
    class FrameJob;

    /**
     * Phase 1 only: rasterize the frame functionally (coverage, early
     * Z, texture sampling into per-tile replay streams) on the
     * render_threads worker pool. Touches no simulation state — the
     * memory system, caches, texture-path timing and all statistics
     * are untouched, and the texture paths' sampleQuad() is const
     * and pure — so a later frame's recordFrame() may run
     * concurrently with an earlier frame's finishFrame() (the
     * inter-frame pipeline SequenceRunner builds).
     */
    std::unique_ptr<FrameJob> recordFrame(const Scene &scene,
                                          FrameBuffer &fb);

    /**
     * Phase 2: geometry/texture/ROP traffic, the serial timing replay
     * and end-of-frame accounting for a recorded frame. Must run on
     * the coordinating thread, and jobs from consecutive recordFrame()
     * calls must be finished in recording order — then results are
     * bit-identical to renderFrame() at any pipeline depth. Consumes
     * the job (its working state is released).
     */
    FrameStats finishFrame(FrameJob &job);

    /** Collect per-tile texel-block footprints during recordFrame()
     *  for the sequence reuse accounting; see
     *  FrameJob::uniqueBlocks(). */
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
    struct TileWorker; // per-worker phase-1 scratch, defined in renderer.cc
    struct TileWork;   // one tile's replayed fragment work, renderer.cc

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

    /** Phase 1, one tile: rasterize, tile-local early Z, functional
     *  texture sampling; fills (and then encodes) ctx.records[ti].
     *  Thread-safe across distinct tiles (touches only tile-disjoint
     *  state plus the caller-owned worker scratch). */
    void rasterizeTile(FrameCtx &ctx, u32 ti, TileWorker &worker);

    /** Filter one triangle's buffered fragments in 2x2 screen quads,
     *  then emit records in original fragment order. */
    void flushQuadBatch(FrameCtx &ctx, const SetupTriangle &st,
                        unsigned cluster, TileWorker &worker,
                        TileRecord &rec);

    /** Phase 1 driver: rasterize every non-empty tile, on
     *  params_.renderThreads workers when > 1. */
    void recordPhase(FrameCtx &ctx);

    /** Phase 2: the cluster scheduler. Picks tiles in gpu.schedule
     *  order, replays each through replayTile(), then settles ROP
     *  traffic and the cluster clock. */
    // texpim-lint: replay-root the serial phase-2 scheduler; per-tile
    // and per-request stat updates go through held references
    void replayPhase(FrameCtx &ctx, FrameStats &fs);

    /** Phase 2, one tile: decode its record into `decoded` and replay
     *  the fragments through the Z/color caches, the in-flight window
     *  and the texture path, accumulating into `w`. */
    void replayTile(FrameCtx &ctx, TileRecord &decoded, unsigned cluster,
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
    FrameBuffer &fb() const;

    /** Sorted unique texel block/line addresses the frame's recorded
     *  streams touch (base blocks plus A-TFIM child blocks). Empty
     *  unless setCollectFrameBlocks(true) enabled the census. */
    std::vector<Addr> uniqueBlocks() const;

  private:
    friend class Renderer;
    FrameJob();

    std::unique_ptr<FrameCtx> ctx_;
    FrameStats fs_{}; //!< phase-1 partials (geometry stats, record bytes)
};

} // namespace texpim

#endif // TEXPIM_GPU_RENDERER_HH
