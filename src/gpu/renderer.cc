#include "gpu/renderer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/sim_context.hh"
#include "common/trace_events.hh"
#include "gpu/replay.hh"

namespace texpim {

namespace {

/** One buffered fragment awaiting quad-batched sampling. */
struct PendingFrag
{
    FragRecord fr;
    SampleCoords coords{};       //!< base-layer sampling coordinates
    SampleCoords detailCoords{}; //!< detail layer, when kHasDetail
};

} // namespace

/**
 * Per-recorder phase-1 state: the sampler scratch plus the quad
 * batching buffers. One instance per recording thread; capacities
 * persist across tiles so the steady state allocates nothing.
 */
struct Renderer::TileWorker
{
    SamplerScratch scratch;
    std::vector<PendingFrag> pending; //!< one triangle's fragments
    std::vector<u32> order;           //!< shaded pendings, quad-sorted
};

namespace {

/** ROP Z/color caches (hidden inside the ROP in Fig. 1). */
CacheParams
ropCacheParams()
{
    CacheParams p;
    p.sizeBytes = 8 * KiB;
    p.ways = 8;
    p.lineBytes = 64;
    return p;
}

/** Simple fixed light for the N.L shading term. */
const Vec3 kLightDir = Vec3{-0.35f, 0.85f, 0.4f}.normalized();

double
wallSeconds()
{
    // texpim-lint: allow(D1) host wall-clock for FrameStats' phase
    // fields and the profiler's wall column, never simulated cycles.
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/** Per-frame working state shared by the render phases. */
struct Renderer::FrameCtx
{
    const Scene &scene;
    FrameBuffer &fb;

    std::vector<SetupTriangle> tris;
    Cycle geomEnd = 0;
    Cycle geomComputeCycles = 0; //!< vertex+setup time (functional half)

    unsigned width = 0, height = 0, tile = 0;
    unsigned tilesX = 0, tilesY = 0;
    Vec3 eye{};

    // Texture id -> owning object's detail layer (triangles carry only
    // the base texture id).
    std::vector<i32> detailOf;
    std::vector<float> detailScaleOf;

    std::vector<std::vector<u32>> bins; //!< triangle ids per tile
    std::vector<std::vector<u32>> clusterTiles;

    // Timing-model state (phase 2 only).
    std::vector<Cycle> clusterTime;
    std::vector<InflightWindow> windows;
    std::vector<size_t> nextTile;
    unsigned rrNext = 0;
    Cycle computePerFrag = 0;
    Cycle ropDrain = 0;
    double angleSum = 0.0;
    u64 anisoSum = 0;

    // Per-tile record accounting, indexed by tile index. Each entry is
    // written by the thread that records the tile and read after the
    // window's pool has joined.
    std::vector<u64> tileBytes; //!< TileRecord::sizeBytes()
    std::vector<u32> replayOrder; //!< tile indices in replay order

    // Per-tile sorted-unique texel block footprints (sequence reuse
    // accounting; empty unless asked).
    bool collectBlocks = false;
    std::vector<std::vector<Addr>> tileBlocks;

    FrameCtx(const Scene &s, FrameBuffer &f) : scene(s), fb(f) {}
};

/** Fragment work each tile contributes to the cluster clock. */
struct Renderer::TileWork
{
    Cycle aluFrontier = 0;
    Cycle issueFrontier = 0;
    u64 shaded = 0;
    u64 killed = 0;
    u64 zLineMisses = 0;
    u64 cLineMisses = 0;
};

/**
 * The streaming window between the two phases of one frame. Each
 * cluster's next unreplayed tile is open for recording into the
 * cluster's window slot, which keeps a frame's live record to one tile
 * per cluster. A pool of gpu.render_threads - 1 threads claims open
 * tiles, oldest opening first, and publishes each recorded tile
 * through its slot's release/acquire ready flag. The
 * coordinating thread replays in the schedule's order regardless:
 * take() records the chosen tile inline if no pool thread claimed it,
 * or waits on its flag; done() empties the slot and opens the
 * cluster's next tile in it. Which tile replays next never depends on
 * readiness, so the replay is bit-identical at any thread count.
 * The same flags hand each cluster's texture L1 on: tile k's recorder
 * runs the tile through it before its kReady release, and done()'s
 * kOpen release reaches tile k + 1's recorder only after that.
 *
 * The destructor stops the pool, wakes every waiting thread and joins
 * them, so a replay that unwinds (SimTimeout, SimPanic) leaks no
 * thread and no recorder outlives the slots it writes.
 */
class Renderer::TileWindow
{
  public:
    TileWindow(Renderer &r, FrameCtx &ctx);
    ~TileWindow() { shutdown(); }
    TileWindow(const TileWindow &) = delete;
    TileWindow &operator=(const TileWindow &) = delete;

    /** The record of tile `k` of cluster `c`'s list, recorded inline if
     *  no pool thread claimed it, else once its recorder publishes it.
     *  Coordinating thread only. */
    const TileRecord &take(unsigned c, size_t k, FrameStats &fs);

    /** The replay is done with tile `k` of cluster `c`: empty its slot
     *  and open tile k + 1 in it. Coordinating thread only. */
    void done(unsigned c, size_t k);

  private:
    enum State : u32 { kIdle, kOpen, kClaimed, kReady, kFailed };

    struct Slot
    {
        TileRecord rec;
        u32 tile = 0; //!< written before the kOpen release store
        std::atomic<u32> state{kIdle};
    };

    void open(unsigned c, size_t k);
    void work();
    void shutdown();

    Renderer &r_;
    FrameCtx &ctx_;
    std::vector<Slot> slots_; //!< one per cluster
    TileWorker inline_; //!< the coordinating thread's record scratch

    std::mutex mu_;
    std::condition_variable wake_;
    std::deque<Slot *> opened_; //!< guarded by mu_; oldest opening first
    bool stop_ = false;         //!< guarded by mu_
    std::exception_ptr error_;  //!< guarded by mu_; first pool failure
    std::vector<std::thread> pool_;
};

Renderer::TileWindow::TileWindow(Renderer &r, FrameCtx &ctx)
    : r_(r), ctx_(ctx), slots_(r.params_.clusters)
{
    size_t tiles = 0;
    for (const auto &list : ctx.clusterTiles)
        tiles += list.size();
    // The coordinating thread is the last recorder; a pool larger
    // than the frame's tile count could never be busy.
    size_t threads = std::min<size_t>(r.params_.renderThreads - 1, tiles);
    try {
        pool_.reserve(threads);
        for (size_t t = 0; t < threads; ++t)
            pool_.emplace_back([this] { work(); });
    } catch (...) {
        shutdown();
        throw;
    }
    for (unsigned c = 0; c < r.params_.clusters; ++c)
        open(c, 0);
}

void
Renderer::TileWindow::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
}

void
Renderer::TileWindow::open(unsigned c, size_t k)
{
    if (k >= ctx_.clusterTiles[c].size())
        return;
    Slot &s = slots_[c];
    s.tile = ctx_.clusterTiles[c][k];
    s.state.store(kOpen, std::memory_order_release);
    if (pool_.empty())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        opened_.push_back(&s);
    }
    wake_.notify_one();
}

// texpim-lint: phase-root pool thread of the streaming window; records
// claimed tiles while the coordinating thread replays earlier ones
void
Renderer::TileWindow::work()
{
    TileWorker worker;
    for (;;) {
        Slot *s = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            wake_.wait(lk, [&] { return stop_ || !opened_.empty(); });
            if (stop_)
                return;
            s = opened_.front();
            opened_.pop_front();
        }
        // A stale opening (the coordinating thread recorded the tile
        // inline, or already reused the slot) fails the claim.
        u32 expect = kOpen;
        if (!s->state.compare_exchange_strong(expect, kClaimed,
                                              std::memory_order_acquire))
            continue;
        u32 outcome = kReady;
        try {
            r_.rasterizeTile(ctx_, s->tile, s->rec, worker);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!error_) {
                // texpim-lint: allow(P2) guarded by mu_; rethrown on the
                // coordinating thread when it takes the failed tile
                error_ = std::current_exception();
            }
            outcome = kFailed;
        }
        s->state.store(outcome, std::memory_order_release);
        s->state.notify_one();
    }
}

const TileRecord &
Renderer::TileWindow::take(unsigned c, size_t k, FrameStats &fs)
{
    Slot &s = slots_[c];
    u32 st = s.state.load(std::memory_order_acquire);
    if (st != kReady) {
        // The replay stalls here until the chosen tile is recorded.
        double t0 = wallSeconds();
        if (st == kOpen &&
            s.state.compare_exchange_strong(st, kClaimed,
                                            std::memory_order_acquire)) {
            r_.rasterizeTile(ctx_, s.tile, s.rec, inline_);
            st = kReady;
            s.state.store(kReady, std::memory_order_relaxed);
        }
        while (st == kClaimed) {
            s.state.wait(kClaimed, std::memory_order_acquire);
            st = s.state.load(std::memory_order_acquire);
        }
        fs.wallReplayWaitSec += wallSeconds() - t0;
    }
    if (st == kFailed) {
        std::exception_ptr e;
        {
            std::lock_guard<std::mutex> lk(mu_);
            e = error_;
        }
        std::rethrow_exception(e);
    }
    TEXPIM_ASSERT(st == kReady, "tile window: cluster ", c, " tile ", k,
                  " taken but never opened");
    return s.rec;
}

void
Renderer::TileWindow::done(unsigned c, size_t k)
{
    Slot &s = slots_[c];
    s.rec.clear(); // keeps the arrays' capacity for the next tile
    s.state.store(kIdle, std::memory_order_relaxed);
    open(c, k + 1);
}

namespace {

/** Front-to-back within the tile approximates the depth-sorted
 *  submission real engines use, letting early Z do its job. The
 *  triangle-index tiebreak pins the order of equal-depth triangles,
 *  so the fragment stream does not depend on the stdlib's sort. */
void
sortBinFrontToBack(std::vector<u32> &bin,
                   const std::vector<SetupTriangle> &tris)
{
    std::stable_sort(bin.begin(), bin.end(), [&](u32 a, u32 b) {
        float da = tris[a].minDepth();
        float db = tris[b].minDepth();
        if (da != db)
            return da < db;
        return a < b;
    });
}

} // namespace

Renderer::Renderer(const GpuParams &params, MemorySystem &mem,
                   TexturePath &tex)
    : params_(params), mem_(mem), tex_(tex),
      z_cache_(ropCacheParams()), color_cache_(ropCacheParams()),
      stats_("renderer"),
      frames_(stats_.counter(
          "frames", "frames rendered through this pipeline")),
      fragments_shaded_(stats_.counter(
          "fragments_shaded", "fragments that passed early Z and were shaded")),
      fragments_early_z_killed_(stats_.counter(
          "fragments_early_z_killed",
          "fragments rejected by the early-Z test")),
      triangles_setup_(stats_.counter(
          "triangles_setup", "triangles surviving clipping and setup")),
      hier_z_skipped_(stats_.counter(
          "hier_z_skipped",
          "triangles skipped by hierarchical Z over full tiles")),
      end_compute_(stats_.counter(
          "end_compute",
          "cycle the last cluster drained its compute frontier")),
      end_windows_(stats_.counter(
          "end_windows", "cycle the last in-flight texture request retired")),
      end_rop_(stats_.counter(
          "end_rop", "cycle the last ROP writeback drained")),
      tile_cycles_(stats_.histogram(
          "tile_cycles", 0.0, 65536.0, 64,
          "per-tile processing time in cycles"))
{
    TEXPIM_ASSERT(params_.clusters > 0 && params_.shadersPerCluster > 0,
                  "GPU needs clusters and shaders");
    TEXPIM_ASSERT(params_.renderThreads >= 1,
                  "gpu.render_threads must be at least 1");
}

Cycle
Renderer::geometryTraffic(const Scene &scene)
{
    // Vertex and index fetch traffic, streamed in 512 B chunks.
    Cycle mem_done = 0;
    Addr cursor = kGeometryBase;
    for (const auto &obj : scene.objects) {
        u64 remaining = obj.mesh.fetchBytes();
        while (remaining > 0) {
            u64 chunk = std::min<u64>(remaining, 512);
            mem_done = std::max(
                mem_done, mem_.read(cursor, chunk, TrafficClass::Geometry, 0));
            cursor += chunk;
            remaining -= chunk;
        }
    }
    return mem_done;
}

Cycle
Renderer::geometryFunctional(const Scene &scene,
                             std::vector<SetupTriangle> &tris, FrameStats &fs)
{
    Mat4 view = scene.camera.viewMatrix();
    Mat4 proj = scene.camera.projMatrix(scene.settings.width,
                                        scene.settings.height);
    Mat4 view_proj = proj * view;

    std::vector<ShadedVertex> shaded;
    std::vector<ClipTriangle> clipped;
    for (const auto &obj : scene.objects) {
        shadeVertices(obj.mesh, obj.model, view_proj, obj.model, shaded);
        clipped.clear();
        assembleAndClip(shaded, obj.mesh.indices, clipped, fs.geom);
        for (const auto &ct : clipped) {
            SetupTriangle st;
            if (setupTriangle(ct, scene.settings.width,
                              scene.settings.height, obj.textureId, st)) {
                tris.push_back(st);
                ++fs.trianglesSetup;
            }
        }
    }

    u64 total_shaders = u64(params_.clusters) * params_.shadersPerCluster;
    Cycle vertex_cycles =
        (fs.geom.verticesShaded * params_.vertexShaderCycles +
         total_shaders - 1) /
        total_shaders;
    Cycle setup_cycles =
        (fs.trianglesSetup * params_.triangleSetupCycles + params_.clusters -
         1) /
        params_.clusters;

    return vertex_cycles + setup_cycles;
}

void
Renderer::replayPhase(FrameCtx &ctx, FrameStats &fs)
{
    FrameBuffer &fb = ctx.fb;

    // Starts the record pool; its destructor joins it, on unwind too.
    TileWindow window(*this, ctx);
    ctx.replayOrder.reserve(ctx.bins.size());

    // Cooperative cancellation at tile granularity: a single branch
    // per tile when no watchdog deadline is armed (the zero-overhead
    // contract), a SimTimeout unwind when a hung job's budget runs out.
    const Deadline &deadline = SimContext::current().deadline();
    const GpuParams::Schedule sched = params_.schedule;

    while (true) {
        deadline.check("renderer.tile");
        unsigned cluster = params_.clusters;
        if (sched == GpuParams::Schedule::RoundRobin) {
            // Pinned functional order: fixed round-robin over clusters
            // with tiles remaining, independent of any completion
            // time. Keeps the request stream (and A-TFIM's image)
            // invariant under timing perturbations; see GpuParams.
            for (unsigned i = 0; i < params_.clusters; ++i) {
                unsigned c = (ctx.rrNext + i) % params_.clusters;
                if (ctx.nextTile[c] < ctx.clusterTiles[c].size()) {
                    cluster = c;
                    ctx.rrNext = (c + 1) % params_.clusters;
                    break;
                }
            }
        } else {
            Cycle best = kNeverCycle;
            for (unsigned c = 0; c < params_.clusters; ++c) {
                if (ctx.nextTile[c] >= ctx.clusterTiles[c].size())
                    continue;
                // The next texture request of cluster c will issue no
                // earlier than its compute clock and no earlier than
                // its in-flight window frees a slot — schedule on that
                // horizon so memory sees accesses in near-global-time
                // order.
                Cycle horizon =
                    std::max(ctx.clusterTime[c], ctx.windows[c].oldest());
                if (horizon < best) {
                    best = horizon;
                    cluster = c;
                }
            }
        }
        if (cluster == params_.clusters)
            break;
        size_t k = ctx.nextTile[cluster]++;
        u32 ti = ctx.clusterTiles[cluster][k];
        ctx.replayOrder.push_back(ti);
        ++fs.tilesProcessed;
        Cycle tile_start = ctx.clusterTime[cluster];

        unsigned tx = ti % ctx.tilesX;
        unsigned ty = ti / ctx.tilesX;
        unsigned x0 = tx * ctx.tile;
        unsigned y0 = ty * ctx.tile;

        TileWork w;
        w.aluFrontier = tile_start;
        w.issueFrontier = tile_start;
        Cycle last_rop = tile_start;

        replayTile(ctx, window.take(cluster, k, fs), cluster, ti,
                   tile_start, w, fs);
        window.done(cluster, k);

        // ROP traffic for this tile: Z read-modify-write on Z-cache
        // misses, color writeback on color-cache misses. The ROP
        // buffers these asynchronously — they consume memory bandwidth
        // and drain by end of frame, but do not stall the next tile.
        for (u64 i = 0; i < w.zLineMisses; ++i) {
            Addr a = fb.depthAddr(x0, y0) + i * 64;
            last_rop = std::max(last_rop,
                                mem_.read(a, 64, TrafficClass::ZTest,
                                          tile_start));
            mem_.write(a, 64, TrafficClass::ZTest, tile_start);
        }
        for (u64 i = 0; i < w.cLineMisses; ++i) {
            Addr a = fb.colorAddr(x0, y0) + i * 64;
            last_rop = std::max(last_rop,
                                mem_.write(a, 64, TrafficClass::ColorBuffer,
                                           tile_start));
        }
        ctx.ropDrain = std::max(ctx.ropDrain, last_rop);

        // Early-Z-killed fragments still occupy the pipeline briefly.
        Cycle kill_cycles =
            (w.killed + params_.shadersPerCluster - 1) /
            params_.shadersPerCluster;

        fs.fragmentsShaded += w.shaded;
        fs.fragmentsEarlyZKilled += w.killed;

        // The in-flight texture window carries across tiles (multiple
        // tiles of fragments are resident per cluster). The cluster
        // clock advances to the later of its compute frontier and its
        // texture-issue horizon, which keeps every memory stream
        // (texture, ROP, geometry) on one coherent timeline; the frame
        // drains outstanding responses and ROP writebacks at the end.
        ctx.clusterTime[cluster] =
            std::max(w.aluFrontier + kill_cycles, w.issueFrontier);

        TEXPIM_PROF_CYCLES(prof::kZoneSchedule,
                           ctx.clusterTime[cluster] - tile_start);
        tile_cycles_.sample(double(ctx.clusterTime[cluster] - tile_start));
        TEXPIM_TRACE_COMPLETE("raster", "tile", cluster, tile_start,
                              ctx.clusterTime[cluster] - tile_start);
        TEXPIM_TRACE_COUNTER("raster", "fragments_shaded",
                             ctx.clusterTime[cluster],
                             double(fs.fragmentsShaded));
    }
}

void
Renderer::rasterizeTile(FrameCtx &ctx, u32 ti, TileRecord &rec,
                        TileWorker &worker)
{
    FrameBuffer &fb = ctx.fb;
    auto &bin = ctx.bins[ti];
    // Same assignment binTilesToClusters used, so the recorded stream
    // matches the cluster that replays it.
    unsigned cluster = ti % params_.clusters;

    unsigned tx = ti % ctx.tilesX;
    unsigned ty = ti / ctx.tilesX;
    unsigned x0 = tx * ctx.tile;
    unsigned y0 = ty * ctx.tile;
    unsigned x1 = std::min(x0 + ctx.tile, ctx.width);
    unsigned y1 = std::min(y0 + ctx.tile, ctx.height);
    unsigned tile_pixels = (x1 - x0) * (y1 - y0);

    sortBinFrontToBack(bin, ctx.tris);

    // One covered fragment (and usually one texture request) per pixel
    // is the common case; reserving that floor avoids most of the
    // doubling-growth copies while recording.
    rec.frags.reserve(tile_pixels);
    rec.stream.samples.reserve(tile_pixels);

    unsigned covered_count = 0;
    float tile_zmax = -1.0f;
    std::vector<bool> covered(tile_pixels, false);

    FragmentSample frag;
    for (u32 t_idx : bin) {
        const SetupTriangle &st = ctx.tris[t_idx];

        if (covered_count == tile_pixels && st.minDepth() > tile_zmax) {
            ++rec.hierZSkipped;
            continue;
        }

        unsigned px0 = std::max(int(x0), st.minX);
        unsigned px1 = std::min(int(x1) - 1, st.maxX);
        unsigned py0 = std::max(int(y0), st.minY);
        unsigned py1 = std::min(int(y1) - 1, st.maxY);

        i32 detail = ctx.detailOf[st.textureId];

        for (unsigned y = py0; y <= py1; ++y) {
            for (unsigned x = px0; x <= px1; ++x) {
                if (!evalPixel(st, x, y, ctx.eye, kLightDir, frag))
                    continue;

                FragRecord fr;
                fr.x = u16(x);
                fr.y = u16(y);

                // Tile-local early Z: tiles are disjoint framebuffer
                // regions, so this test reads exactly the depths a
                // serial pass would (phase 2 replays only the Z-cache
                // traffic).
                if (frag.depth >= fb.depth(x, y)) {
                    worker.pending.push_back(PendingFrag{fr, {}, {}});
                    continue;
                }

                fr.flags = FragRecord::kShaded;
                fr.angle = frag.cameraAngle;
                fr.diffuse = frag.diffuse;
                if (detail >= 0)
                    fr.flags |= FragRecord::kHasDetail;

                // Defer sampling: the triangle's fragments are filtered
                // in 2x2 quads at flushQuadBatch, and the fragments
                // emitted in this (raster) order.
                PendingFrag p;
                p.fr = fr;
                p.coords.uv = frag.uv;
                p.coords.ddx = frag.dUvDx;
                p.coords.ddy = frag.dUvDy;
                p.coords.cameraAngle = frag.cameraAngle;
                if (detail >= 0) {
                    float s = ctx.detailScaleOf[st.textureId];
                    p.detailCoords.uv = frag.uv * s;
                    p.detailCoords.ddx = frag.dUvDx * s;
                    p.detailCoords.ddy = frag.dUvDy * s;
                    p.detailCoords.cameraAngle = frag.cameraAngle;
                }
                worker.pending.push_back(p);

                fb.setDepth(x, y, frag.depth);

                unsigned local = (y - y0) * (x1 - x0) + (x - x0);
                if (!covered[local]) {
                    covered[local] = true;
                    ++covered_count;
                }
            }
        }

        flushQuadBatch(ctx, st, cluster, worker, rec);

        if (covered_count == tile_pixels) {
            tile_zmax = -1.0f;
            for (unsigned y = y0; y < y1; ++y)
                for (unsigned x = x0; x < x1; ++x)
                    tile_zmax = std::max(tile_zmax, fb.depth(x, y));
        }
    }

    if (ctx.collectBlocks) {
        // Tile texel-block footprint for the sequence reuse census,
        // taken before the window slot is reused.
        std::vector<Addr> &blk = ctx.tileBlocks[ti];
        blk.assign(rec.stream.blocks.begin(), rec.stream.blocks.end());
        // tie-break: block addresses are u64 (total order); duplicates
        // are interchangeable and unique() drops them.
        std::sort(blk.begin(), blk.end());
        blk.erase(std::unique(blk.begin(), blk.end()), blk.end());
    }

    // The cluster's private texture L1, in the order replayTile looks
    // samples up. This recorder owns the L1 until it publishes the
    // tile: the window opens the cluster's next tile only after this
    // one has replayed.
    for (const FragRecord &fr : rec.frags) {
        if (!(fr.flags & FragRecord::kShaded))
            continue;
        // texpim-lint: allow(T1) cluster-private L1, handed on by the window
        tex_.recordL1(cluster, fr.angle, rec.stream, fr.sample);
        if (fr.flags & FragRecord::kHasDetail)
            tex_.recordL1(cluster, fr.angle, rec.stream, fr.detail);
    }

    ctx.tileBytes[ti] = rec.sizeBytes();
}

void
Renderer::flushQuadBatch(FrameCtx &ctx, const SetupTriangle &st,
                         unsigned cluster, TileWorker &worker,
                         TileRecord &rec)
{
    auto &pending = worker.pending;
    if (pending.empty())
        return;

    // Group the shaded fragments by their 2x2 screen quad. Raster
    // order visits a quad's two rows far apart, so sort by quad
    // coordinate; stable_sort keeps same-quad fragments in raster
    // order (equal keys: original order is the tie-break).
    auto quadKey = [&](u32 i) {
        const FragRecord &fr = pending[i].fr;
        return (u32(fr.y >> 1) << 16) | u32(fr.x >> 1);
    };
    worker.order.clear();
    for (u32 i = 0; i < pending.size(); ++i)
        if ((pending[i].fr.flags & FragRecord::kShaded) != 0)
            worker.order.push_back(i);
    std::stable_sort(worker.order.begin(), worker.order.end(),
                     [&](u32 a, u32 b) { return quadKey(a) < quadKey(b); });

    const Scene &scene = ctx.scene;
    i32 detail = ctx.detailOf[st.textureId];

    TexRequest base;
    base.tex = &scene.textures->texture(st.textureId);
    base.mode = scene.settings.filterMode;
    base.maxAniso = scene.settings.maxAniso;
    base.clusterId = cluster;

    SampleCoords qc[kQuadLanes];
    u32 lanes[kQuadLanes];
    for (size_t s = 0; s < worker.order.size();) {
        u32 key = quadKey(worker.order[s]);
        unsigned n = 0;
        while (s < worker.order.size() && n < kQuadLanes &&
               quadKey(worker.order[s]) == key) {
            lanes[n] = worker.order[s];
            qc[n] = pending[lanes[n]].coords;
            ++n;
            ++s;
        }

        u32 b0 = u32(rec.stream.samples.size());
        tex_.sampleQuad(base, qc, n, rec.stream, worker.scratch);
        for (unsigned l = 0; l < n; ++l)
            pending[lanes[l]].fr.sample = b0 + l;

        if (detail >= 0) {
            TexRequest dbase = base;
            dbase.tex = &scene.textures->texture(u32(detail));
            for (unsigned l = 0; l < n; ++l)
                qc[l] = pending[lanes[l]].detailCoords;
            u32 d0 = u32(rec.stream.samples.size());
            tex_.sampleQuad(dbase, qc, n, rec.stream, worker.scratch);
            for (unsigned l = 0; l < n; ++l)
                pending[lanes[l]].fr.detail = d0 + l;
        }
    }

    // Emit the fragments in the original (raster) order: the order the
    // timing replay walks the tile, which the golden images pin. Their
    // samples stay in quad order; replay reaches them by index.
    for (const PendingFrag &p : pending)
        rec.frags.push_back(p.fr);
    pending.clear();
}

void
Renderer::replayTile(FrameCtx &ctx, const TileRecord &rec,
                     unsigned cluster, u32 ti, Cycle tile_start,
                     TileWork &w, FrameStats &fs)
{
    FrameBuffer &fb = ctx.fb;

    // Consuming end of the record-stream flow arrow (the producing
    // "s" event is emitted before the replay starts).
    TEXPIM_TRACE_FLOW_END("replay", "tile_stream", cluster, tile_start, ti);
    fs.hierZTrianglesSkipped += rec.hierZSkipped;

    for (const FragRecord &fr : rec.frags) {
        ++fs.fragmentsCovered;

        if (z_cache_.access(fb.depthAddr(fr.x, fr.y)) ==
            CacheOutcome::Miss)
            ++w.zLineMisses;
        if (!(fr.flags & FragRecord::kShaded)) {
            ++w.killed;
            continue;
        }

        ++w.shaded;
        ctx.angleSum += fr.angle;

        // Timing context only: the functional work is in the
        // record, so replay() never dereferences req.tex.
        TexRequest req;
        req.coords.cameraAngle = fr.angle;
        req.clusterId = cluster;

        w.aluFrontier += ctx.computePerFrag;
        req.wanted = w.aluFrontier;
        req.issue =
            std::max(w.aluFrontier, ctx.windows[cluster].oldest());
        w.issueFrontier = std::max(w.issueFrontier, req.issue);
        TexResponse resp = tex_.replay(req, rec.stream, fr.sample);
        ctx.windows[cluster].push(resp.complete);

        ctx.anisoSum += rec.stream.samples[fr.sample].anisoRatio;

        ColorF texel = resp.color;
        if (fr.flags & FragRecord::kHasDetail) {
            TexRequest dreq = req;
            dreq.wanted = w.aluFrontier;
            dreq.issue =
                std::max(w.aluFrontier, ctx.windows[cluster].oldest());
            w.issueFrontier = std::max(w.issueFrontier, dreq.issue);
            TexResponse dresp =
                tex_.replay(dreq, rec.stream, fr.detail);
            ctx.windows[cluster].push(dresp.complete);
            texel = (texel * dresp.color * 2.0f).clamped();
        }

        ColorF out = (texel * fr.diffuse).clamped();
        fb.setPixel(fr.x, fr.y, packColor(out));

        if (color_cache_.access(fb.colorAddr(fr.x, fr.y)) ==
            CacheOutcome::Miss)
            ++w.cLineMisses;
    }
}

void
Renderer::setupFrameCtx(FrameCtx &ctx)
{
    const Scene &scene = ctx.scene;

    ctx.width = scene.settings.width;
    ctx.height = scene.settings.height;
    ctx.tile = params_.tileSize;
    ctx.tilesX = (ctx.width + ctx.tile - 1) / ctx.tile;
    ctx.tilesY = (ctx.height + ctx.tile - 1) / ctx.tile;
    ctx.eye = scene.camera.eye;

    ctx.detailOf.assign(scene.textures->count(), -1);
    ctx.detailScaleOf.assign(scene.textures->count(), 1.0f);
    for (const auto &obj : scene.objects) {
        if (obj.detailTextureId >= 0) {
            ctx.detailOf[obj.textureId] = obj.detailTextureId;
            ctx.detailScaleOf[obj.textureId] = obj.detailUvScale;
        }
    }

    // Bin triangles to tiles by bounding box.
    ctx.bins.assign(size_t(ctx.tilesX) * ctx.tilesY, {});
    for (u32 t = 0; t < ctx.tris.size(); ++t) {
        const SetupTriangle &st = ctx.tris[t];
        unsigned tx0 = unsigned(st.minX) / ctx.tile;
        unsigned tx1 = unsigned(st.maxX) / ctx.tile;
        unsigned ty0 = unsigned(st.minY) / ctx.tile;
        unsigned ty1 = unsigned(st.maxY) / ctx.tile;
        for (unsigned ty = ty0; ty <= ty1; ++ty)
            for (unsigned tx = tx0; tx <= tx1; ++tx)
                ctx.bins[size_t(ty) * ctx.tilesX + tx].push_back(t);
    }

    // Tiles are assigned round-robin; the horizon schedule then always
    // advances the cluster with the smallest local clock so that
    // memory accesses reach the shared memory system in approximately
    // global time order (the resource-reservation model needs that).
    ctx.clusterTiles.assign(params_.clusters, {});
    for (u32 ti = 0; ti < ctx.bins.size(); ++ti) {
        if (!ctx.bins[ti].empty())
            ctx.clusterTiles[ti % params_.clusters].push_back(ti);
    }
    ctx.tileBytes.assign(ctx.bins.size(), 0);

    // Per-fragment cluster occupancy: the fixed-function fragment
    // pipeline (interpolation, shader issue, ROP slot) plus the shader
    // ALU work spread over the cluster's shaders.
    ctx.computePerFrag = std::max<Cycle>(
        params_.fragmentPipelineCycles,
        (params_.fragmentShaderCycles + params_.shadersPerCluster - 1) /
            params_.shadersPerCluster);
}

// texpim-lint: phase-root functional setup; runs off-thread in
// pipelined sequences
std::unique_ptr<Renderer::FrameJob>
Renderer::recordFrame(const Scene &scene, FrameBuffer &fb)
{
    TEXPIM_ASSERT(fb.width() == scene.settings.width &&
                      fb.height() == scene.settings.height,
                  "framebuffer does not match scene resolution");

    std::unique_ptr<FrameJob> job(new FrameJob);
    job->ctx_ = std::make_unique<FrameCtx>(scene, fb);
    FrameCtx &ctx = *job->ctx_;
    FrameStats &fs = job->fs_;

    double t0 = wallSeconds();
    fb.clear();
    ctx.geomComputeCycles = geometryFunctional(scene, ctx.tris, fs);
    setupFrameCtx(ctx);

    ctx.collectBlocks = collect_frame_blocks_;
    if (ctx.collectBlocks)
        ctx.tileBlocks.assign(ctx.bins.size(), {});
    fs.wallPhase1Sec = wallSeconds() - t0;
    return job;
}

FrameStats
Renderer::finishFrame(FrameJob &job)
{
    TEXPIM_ASSERT(job.ctx_ != nullptr,
                  "finishFrame: job already consumed");
    FrameCtx &ctx = *job.ctx_;
    FrameStats fs = job.fs_;

    // Frame-granularity cancellation point for renderFrame and every
    // sequence frame; tile-granularity checks in replayPhase cover the
    // inside of a frame.
    SimContext::current().deadline().check("renderer.frame");

    double t1 = wallSeconds();
    z_cache_.invalidateAll();
    color_cache_.invalidateAll();
    tex_.beginFrame();
    mem_.beginFrame();

    ctx.geomEnd =
        std::max(geometryTraffic(ctx.scene), ctx.geomComputeCycles);
    fs.geometryCycles = ctx.geomEnd;
    // Track (tid) layout: 0..clusters-1 raster tiles, 100+ texture
    // path, 200+ DRAM, 300+ PIM logic, 1000/1001 frame and geometry.
    TEXPIM_TRACE_COMPLETE("raster", "geometry_phase", 1001, 0, ctx.geomEnd);

    ctx.clusterTime.assign(params_.clusters, ctx.geomEnd);
    ctx.windows.assign(params_.clusters,
                       InflightWindow(params_.maxInflightTexRequests));
    ctx.nextTile.assign(params_.clusters, 0);

    // Producing end of the per-tile record-stream flow arrows, emitted
    // on the coordinating thread before the stream starts (recorders
    // carry no tracer context, rule D2); the "f" ends are emitted at
    // each tile's replay start.
    if (TraceEvents::active())
        for (u32 ti = 0; ti < ctx.bins.size(); ++ti)
            if (!ctx.bins[ti].empty())
                TEXPIM_TRACE_FLOW_BEGIN("replay", "tile_stream", 1001,
                                        ctx.geomEnd, ti);
    replayPhase(ctx, fs);
    fs.wallPhase2Sec = wallSeconds() - t1;

    accountRecords(ctx, fs);
    finishTail(ctx, fs);
    // The census outlives the frame's working memory: sequences read
    // it after finishing the frame.
    job.tileBlocks_ = std::move(ctx.tileBlocks);
    job.ctx_.reset();
    return fs;
}

void
Renderer::accountRecords(const FrameCtx &ctx, FrameStats &fs) const
{
    for (u64 bytes : ctx.tileBytes)
        fs.recordBytes += bytes;
    fs.recordBytesDecoded = fs.recordBytes;

    // The window's peak, stepped through the replay order: before
    // each step it holds every cluster's next unreplayed tile.
    auto bytesAt = [&](unsigned c, size_t k) -> u64 {
        const std::vector<u32> &list = ctx.clusterTiles[c];
        return k < list.size() ? ctx.tileBytes[list[k]] : 0;
    };
    std::vector<size_t> head(params_.clusters, 0);
    u64 live = 0;
    for (unsigned c = 0; c < params_.clusters; ++c)
        live += bytesAt(c, 0);
    for (u32 ti : ctx.replayOrder) {
        unsigned c = ti % params_.clusters;
        fs.recordBytesPeak = std::max(fs.recordBytesPeak, live);
        live -= bytesAt(c, head[c]);
        ++head[c];
        live += bytesAt(c, head[c]);
    }
}

Renderer::FrameJob::FrameJob() = default;
Renderer::FrameJob::~FrameJob() = default;

const Scene &
Renderer::FrameJob::scene() const
{
    TEXPIM_ASSERT(ctx_ != nullptr, "FrameJob already consumed");
    return ctx_->scene;
}

std::vector<Addr>
Renderer::FrameJob::uniqueBlocks() const
{
    std::vector<Addr> out;
    size_t total = 0;
    for (const auto &t : tileBlocks_)
        total += t.size();
    out.reserve(total);
    for (const auto &t : tileBlocks_)
        out.insert(out.end(), t.begin(), t.end());
    // tie-break: block addresses are u64 (total order); duplicates are
    // interchangeable and unique() drops them.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

FrameStats
Renderer::renderFrame(const Scene &scene, FrameBuffer &fb)
{
    std::unique_ptr<FrameJob> job = recordFrame(scene, fb);
    return finishFrame(*job);
}

void
Renderer::finishTail(FrameCtx &ctx, FrameStats &fs)
{
    Cycle end_compute = ctx.geomEnd;
    Cycle end_windows = 0;
    for (unsigned c = 0; c < params_.clusters; ++c) {
        end_compute = std::max(end_compute, ctx.clusterTime[c]);
        end_windows = std::max(end_windows, ctx.windows[c].last());
    }
    Cycle frame_end = std::max({end_compute, end_windows, ctx.ropDrain});
    end_compute_ += end_compute;
    end_windows_ += end_windows;
    end_rop_ += ctx.ropDrain;

    // Display scanout of the finished frame (frame-buffer read traffic;
    // happens off the critical path of rendering the next frame).
    u64 fb_bytes = u64(ctx.width) * ctx.height * 4;
    for (u64 off = 0; off < fb_bytes; off += 4096) {
        u64 chunk = std::min<u64>(4096, fb_bytes - off);
        mem_.read(FrameBuffer::kColorBase + off, chunk,
                  TrafficClass::FrameBuffer, frame_end);
    }

    fs.frameCycles = frame_end;
    fs.texRequests = tex_.requests();
    fs.avgCameraAngleRad =
        fs.fragmentsShaded ? ctx.angleSum / double(fs.fragmentsShaded) : 0.0;
    fs.avgAnisoRatio = fs.fragmentsShaded
                           ? double(ctx.anisoSum) / double(fs.fragmentsShaded)
                           : 0.0;

    frames_ += 1;
    fragments_shaded_ += fs.fragmentsShaded;
    fragments_early_z_killed_ += fs.fragmentsEarlyZKilled;
    triangles_setup_ += fs.trianglesSetup;
    hier_z_skipped_ += fs.hierZTrianglesSkipped;

    // Deterministic cycle/count charges, all from this (coordinating)
    // thread so the profile is identical across gpu.render_threads and
    // jobs settings (rule D2).
    TEXPIM_PROF_CYCLES(prof::kZoneFrame, frame_end);
    TEXPIM_PROF_CYCLES(prof::kZoneGeometry, ctx.geomEnd);
    TEXPIM_PROF_CYCLES(prof::kZoneReplay, frame_end - ctx.geomEnd);
    TEXPIM_PROF_COUNT(prof::kZoneSample, fs.texRequests);
    // The wall column is FrameStats' clock, whichever thread set the
    // frame up (rule D1: host time never enters the cycle columns).
    if (Profiler::active()) {
        Profiler &p = Profiler::instance();
        p.addWall(prof::kZoneFrame, fs.wallPhase1Sec + fs.wallPhase2Sec);
        p.addWall(prof::kZoneSample, fs.wallPhase1Sec);
        p.addWall(prof::kZoneReplay, fs.wallPhase2Sec);
        p.addWall(prof::kZoneWait, fs.wallReplayWaitSec);
    }

    TEXPIM_TRACE_COMPLETE("frame", "render_frame", 1000, 0, frame_end);
    TEXPIM_TRACE_COUNTER("frame", "frame_cycles", frame_end,
                         double(frame_end));
}

} // namespace texpim
