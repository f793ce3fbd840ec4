#include "sim/simulator.hh"

#include <future>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "gpu/host_texture_path.hh"
#include "sim/attribution/attribution.hh"

namespace texpim {

void
writeSimResultJson(JsonWriter &w, const SimResult &r)
{
    w.beginObject();
    w.keyValue("frame_cycles", r.frame.frameCycles);
    w.keyValue("geometry_cycles", r.frame.geometryCycles);
    w.keyValue("texture_filter_cycles", r.textureFilterCycles);
    w.keyValue("tex_requests", r.frame.texRequests);
    w.keyValue("fragments_covered", r.frame.fragmentsCovered);
    w.keyValue("fragments_shaded", r.frame.fragmentsShaded);
    w.keyValue("fragments_early_z_killed", r.frame.fragmentsEarlyZKilled);
    w.keyValue("triangles_setup", r.frame.trianglesSetup);
    w.keyValue("tiles_processed", r.frame.tilesProcessed);
    w.keyValue("avg_camera_angle_rad", r.frame.avgCameraAngleRad);
    w.keyValue("avg_aniso_ratio", r.frame.avgAnisoRatio);
    w.keyValue("off_chip_total_bytes", r.offChipTotalBytes);
    w.keyValue("texture_traffic_bytes", r.textureTrafficBytes);
    w.key("off_chip_bytes_by_class").beginObject();
    for (unsigned c = 0; c < kNumTrafficClasses; ++c)
        w.keyValue(trafficClassName(TrafficClass(c)),
                   r.offChipBytesByClass[c]);
    w.endObject();
    w.key("energy_j").beginObject();
    w.keyValue("shader", r.energy.shaderJ);
    w.keyValue("texture", r.energy.textureJ);
    w.keyValue("cache", r.energy.cacheJ);
    w.keyValue("memory", r.energy.memoryJ);
    w.keyValue("background", r.energy.backgroundJ);
    w.keyValue("leakage", r.energy.leakageJ);
    w.keyValue("total", r.energy.total());
    w.endObject();
    w.keyValue("angle_recalcs", r.angleRecalcs);
    w.keyValue("crc_errors", r.crcErrors);
    w.keyValue("link_retries", r.linkRetries);
    w.keyValue("pim_fallbacks", r.pimFallbacks);
    // FrameStats' host wall-clock and record fields (wallPhase1Sec/
    // wallPhase2Sec/wallReplayWaitSec/recordBytes*) are intentionally
    // absent: stats_out files must stay
    // byte-identical across runs, hosts and gpu.render_threads
    // settings. texbench reports them separately.
    w.endObject();
}

// Goldens pin A-TFIM images at the paper's default threshold.
static_assert(AtfimParams{}.angleThresholdRad == kThreshold001Pi,
              "A-TFIM's default threshold must be kThreshold001Pi");

SimConfig
SimConfig::fromConfig(const Config &cfg)
{
    SimConfig c;
    std::string d = cfg.getString("design", "baseline");
    if (!parseDesign(d, c.design))
        TEXPIM_FATAL("unknown design '", d,
                     "' (baseline|bpim|stfim|atfim)");

    c.atfim.angleThresholdRad =
        float(cfg.getDouble("atfim.angle_threshold_rad",
                            double(c.atfim.angleThresholdRad)));
    c.disableAniso = cfg.getBool("disable_aniso", false);
    c.gpu = GpuParams::fromConfig(cfg);
    c.hmc.fault = FaultParams::fromConfig(cfg);
    c.robustness = RobustnessParams::fromConfig(cfg);
    return c;
}

RenderingSimulator::RenderingSimulator(const SimConfig &cfg)
    : cfg_(cfg), ctx_(SimContext::current())
{
    build();
}

struct RenderingSimulator::SequenceStats
{
    StatGroup group{"sequence"};
    StatCounter &frames = group.counter(
        "frames", "frames rendered in camera-path sequences");
    StatCounter &uniqueBlocks = group.counter(
        "unique_blocks", "distinct texel blocks touched, summed over frames");
    StatCounter &blocksReusedPrev = group.counter(
        "blocks_reused_prev", "texel blocks also touched by the previous "
                              "frame");
    StatCounter &interframeTagHits = group.counter(
        "interframe_tag_hits", "texture L1/L2 hits on lines warm from an "
                               "earlier frame");
};

RenderingSimulator::~RenderingSimulator() = default;

void
RenderingSimulator::build()
{
    gddr5_.reset();
    hmc_.reset();
    tex_path_.reset();
    renderer_.reset();

    switch (cfg_.design) {
      case Design::Baseline:
        gddr5_ = std::make_unique<Gddr5Memory>(cfg_.gddr5);
        mem_ = gddr5_.get();
        tex_path_ = std::make_unique<HostTexturePath>(cfg_.gpu, *mem_);
        break;
      case Design::BPim:
        hmc_ = std::make_unique<HmcMemory>(cfg_.hmc);
        mem_ = hmc_.get();
        tex_path_ = std::make_unique<HostTexturePath>(cfg_.gpu, *mem_);
        break;
      case Design::STfim:
        hmc_ = std::make_unique<HmcMemory>(cfg_.hmc);
        mem_ = hmc_.get();
        tex_path_ = std::make_unique<StfimTexturePath>(
            cfg_.gpu, cfg_.mtu, cfg_.packets, *hmc_, cfg_.robustness);
        break;
      case Design::ATfim: {
        hmc_ = std::make_unique<HmcMemory>(cfg_.hmc);
        mem_ = hmc_.get();
        tex_path_ = std::make_unique<AtfimTexturePath>(
            cfg_.gpu, cfg_.atfim, cfg_.packets, *hmc_, cfg_.robustness);
        break;
      }
      default:
        TEXPIM_PANIC("bad design");
    }
    renderer_ = std::make_unique<Renderer>(cfg_.gpu, *mem_, *tex_path_);
}

const MemorySystem &
RenderingSimulator::memory() const
{
    TEXPIM_ASSERT(mem_ != nullptr, "simulator not built");
    return *mem_;
}

const TexturePath &
RenderingSimulator::texturePath() const
{
    TEXPIM_ASSERT(tex_path_ != nullptr, "simulator not built");
    return *tex_path_;
}

namespace {

u64
counterOr0(const StatGroup &g, const std::string &name)
{
    return g.hasCounter(name) ? g.findCounter(name).value() : 0;
}

} // namespace

SimResult
RenderingSimulator::renderScene(const Scene &scene)
{
    TEXPIM_ASSERT(&SimContext::current() == &ctx_,
                  "rendering under a different SimContext than the one "
                  "this simulator was built under");
    // Cold state per frame, as the paper renders selected frames.
    build();
    Scene frame_scene = prepareFrameScene(scene);
    auto fb = std::make_shared<FrameBuffer>(frame_scene.settings.width,
                                            frame_scene.settings.height);
    std::unique_ptr<Renderer::FrameJob> job =
        recordSequenceFrame(frame_scene, *fb);
    return finishSequenceFrame(*job, std::move(fb));
}

namespace {

/** A frame whose functional setup has run: everything the timing
 *  phase needs, owned so the scene and framebuffer outlive the job
 *  across the set-up thread handoff. */
struct PendingFrame
{
    std::unique_ptr<Scene> scene;
    std::shared_ptr<FrameBuffer> fb;
    std::unique_ptr<Renderer::FrameJob> job;
};

/** Build + prepare the scene for `frame` and run its functional setup
 *  (geometry, tile binning). The scene adopts `textures`, the level's
 *  store from the sequence's first frame, or builds it when null.
 *  prepareFrameScene must precede recording: the filter-mode coercion
 *  changes what functional sampling computes. */
PendingFrame
setUpFrame(RenderingSimulator &sim, const Workload &wl, unsigned frame,
           u64 seed, std::shared_ptr<TextureStore> textures)
{
    PendingFrame p;
    p.scene = std::make_unique<Scene>(
        sim.prepareFrameScene(buildGameScene(wl, frame, seed, textures)));
    p.fb = std::make_shared<FrameBuffer>(p.scene->settings.width,
                                         p.scene->settings.height);
    p.job = sim.recordSequenceFrame(*p.scene, *p.fb);
    return p;
}

/** Size of the intersection of two sorted-unique address lists. */
u64
intersectionCount(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    u64 n = 0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib)
            ++ia;
        else if (*ib < *ia)
            ++ib;
        else {
            ++n;
            ++ia;
            ++ib;
        }
    }
    return n;
}

} // namespace

std::vector<SimResult>
RenderingSimulator::renderSequence(const Workload &wl, unsigned num_frames,
                                   unsigned start_frame, u64 seed)
{
    TEXPIM_ASSERT(num_frames > 0, "empty sequence");
    beginSequence();

    // The first frame is set up here: it builds the level's textures,
    // and later frames adopt them. Built on a set-up thread, they
    // landed in that thread's allocator arena, which the next
    // sequence's set-up thread need not get back, so repeated
    // sequences kept one freed texture set per arena (peak RSS 447 ->
    // 691 MiB over texbench's path-baseline).
    PendingFrame cur = setUpFrame(*this, wl, start_frame, seed, nullptr);
    const std::shared_ptr<TextureStore> textures = cur.scene->textures;
    const bool ahead = cfg_.gpu.pipelineDepth > 1;

    std::vector<SimResult> out;
    out.reserve(num_frames);
    std::vector<Addr> prev_blocks;
    for (unsigned f = 0; f < num_frames; ++f) {
        const unsigned next_frame = start_frame + f + 1;
        const bool last = f + 1 == num_frames;

        // At pipeline_depth > 1 frame f+1 is set up on another thread
        // while frame f streams through the record pool and this
        // thread's replay. recordFrame touches no simulation state and
        // frames finish in order, so results are bit-identical to
        // setting up inline. The future's destructor waits for the
        // set-up, so a frame that unwinds (SimTimeout) leaves no
        // thread behind; get() rethrows a set-up failure.
        std::future<PendingFrame> next;
        if (ahead && !last)
            next = std::async(
                std::launch::async,
                // texpim-lint: phase-root sets frame f+1 up while frame
                // f streams through the caller thread's replay
                [this, &wl, next_frame, seed, &textures] {
                    return setUpFrame(*this, wl, next_frame, seed,
                                      textures);
                });

        resetFrameStats();
        SimResult r = finishSequenceFrame(*cur.job, std::move(cur.fb));
        // Block reuse versus the previous frame. The tiles record while
        // the frame finishes, so the census exists only now.
        std::vector<Addr> blocks = cur.job->uniqueBlocks();
        noteFrameReuse(r, blocks.size(),
                       intersectionCount(prev_blocks, blocks));
        prev_blocks = std::move(blocks);
        out.push_back(std::move(r));

        if (!last)
            cur = ahead ? next.get()
                        : setUpFrame(*this, wl, next_frame, seed, textures);
    }
    return out;
}

void
RenderingSimulator::beginSequence()
{
    TEXPIM_ASSERT(&SimContext::current() == &ctx_,
                  "rendering under a different SimContext than the one "
                  "this simulator was built under");
    build();
    // The census adds record work only (tile-disjoint vectors); the
    // replay streams, timing and statistics are unchanged by it.
    renderer_->setCollectFrameBlocks(true);
    if (!seq_stats_)
        seq_stats_ = std::make_unique<SequenceStats>();
}

Scene
RenderingSimulator::prepareFrameScene(const Scene &scene) const
{
    Scene frame_scene = scene;
    if (cfg_.disableAniso)
        frame_scene.settings.maxAniso = 1;
    // A-TFIM implements anisotropic filtering in memory with the
    // reorderable equal-weight filter, so an EWA scene renders with
    // plain trilinear there.
    if (cfg_.design == Design::ATfim &&
        frame_scene.settings.filterMode == FilterMode::TrilinearEwa)
        frame_scene.settings.filterMode = FilterMode::Trilinear;
    return frame_scene;
}

void
RenderingSimulator::installAttribution(const Scene &scene)
{
    // Profiling on => attribute this frame's traffic. A fresh sink per
    // frame keeps attribution aligned with the per-frame meters the
    // accounting-identity tests compare against.
    if (Profiler::active()) {
        attrib_ = std::make_unique<TrafficAttribution>(
            designName(cfg_.design), Profiler::instance().epochCycles());
        attrib_->mapTextures(*scene.textures);
        mem_->setTrafficSink(attrib_.get());
    } else {
        mem_->setTrafficSink(nullptr);
        attrib_.reset();
    }
}

void
RenderingSimulator::resetFrameStats()
{
    // Per-frame accounting; functional cache/row state stays warm and
    // per-frame timing restarts inside the renderer.
    mem_->resetStats();
    tex_path_->resetStats();
}

std::unique_ptr<Renderer::FrameJob>
RenderingSimulator::recordSequenceFrame(const Scene &scene, FrameBuffer &fb)
{
    return renderer_->recordFrame(scene, fb);
}

SimResult
RenderingSimulator::finishSequenceFrame(Renderer::FrameJob &job,
                                        std::shared_ptr<FrameBuffer> fb)
{
    TEXPIM_ASSERT(&SimContext::current() == &ctx_,
                  "rendering under a different SimContext than the one "
                  "this simulator was built under");
    // Attribution is installed before any traffic flows (the
    // functional setup produced none).
    installAttribution(job.scene());
    SimResult r;
    r.image = std::move(fb);
    r.frame = renderer_->finishFrame(job);
    finalizeResult(r);
    return r;
}

void
RenderingSimulator::noteFrameReuse(SimResult &r, u64 unique_blocks,
                                   u64 reused_prev)
{
    r.seqUniqueBlocks = unique_blocks;
    r.seqBlocksReusedPrev = reused_prev;
    if (seq_stats_) {
        ++seq_stats_->frames;
        seq_stats_->uniqueBlocks += unique_blocks;
        seq_stats_->blocksReusedPrev += reused_prev;
        seq_stats_->interframeTagHits += r.interFrameTagHits;
    }
    if (attrib_)
        attrib_->setSequenceReuse(unique_blocks, reused_prev,
                                  r.interFrameTagHits);
}

void
RenderingSimulator::finalizeResult(SimResult &r)
{
    r.textureFilterCycles = tex_path_->latencySum();

    const TrafficMeter &traffic = mem_->offChipTraffic();
    for (unsigned c = 0; c < kNumTrafficClasses; ++c)
        r.offChipBytesByClass[c] = traffic.bytes(TrafficClass(c));
    r.offChipTotalBytes = traffic.totalBytes();
    r.textureTrafficBytes = traffic.textureBytes();

    // Energy inputs from the pipeline and path statistics.
    const StatGroup &ts = tex_path_->stats();
    EnergyInputs in;
    in.frameCycles = r.frame.frameCycles;
    in.shaderAluOps =
        r.frame.geom.verticesShaded * cfg_.gpu.vertexShaderCycles +
        r.frame.fragmentsShaded * cfg_.gpu.fragmentShaderCycles;
    in.texAluOps = counterOr0(ts, "addr_ops") + counterOr0(ts, "filter_ops") +
                   counterOr0(ts, "host_filter_ops") +
                   counterOr0(ts, "texel_gen_ops") +
                   counterOr0(ts, "combine_ops");
    in.l1Accesses = counterOr0(ts, "l1_hits") + counterOr0(ts, "l1_misses") +
                    counterOr0(ts, "l1_angle_recalcs");
    in.l2Accesses = counterOr0(ts, "l2_hits") + counterOr0(ts, "l2_misses") +
                    counterOr0(ts, "l2_angle_recalcs");
    in.ropCacheAccesses =
        r.frame.fragmentsCovered + r.frame.fragmentsShaded;
    // The frame's tag-cache lookups, charged once from the totals the
    // energy model reads.
    TEXPIM_PROF_COUNT(prof::kZoneTagCache,
                      in.l1Accesses + in.l2Accesses + in.ropCacheAccesses);
    in.offChipBytes = r.offChipTotalBytes;
    in.usesHmc = cfg_.design != Design::Baseline;
    if (cfg_.design == Design::STfim)
        in.pimLogicW = cfg_.energy.stfimMtuW;
    else if (cfg_.design == Design::ATfim)
        in.pimLogicW = cfg_.energy.atfimLogicW;
    if (in.usesHmc) {
        in.dramBytes = hmc_->internalTraffic().totalBytes();
    } else {
        in.dramBytes = r.offChipTotalBytes;
        in.rowActivates = counterOr0(mem_->stats(), "row_misses") +
                          counterOr0(mem_->stats(), "row_conflicts");
    }
    r.energy = estimateEnergy(cfg_.energy, in);

    if (auto *atfim = dynamic_cast<AtfimTexturePath *>(tex_path_.get()))
        r.angleRecalcs = atfim->angleRecalcs();

    if (hmc_) {
        r.crcErrors = counterOr0(hmc_->stats(), "crc_errors");
        r.linkRetries = counterOr0(hmc_->stats(), "link_retries");
    }
    r.pimFallbacks = tex_path_->fallbacks();

    // S-TFIM has no tag caches, so it (correctly) reports zero here.
    r.interFrameTagHits = counterOr0(ts, "l1_interframe_hits") +
                          counterOr0(ts, "l2_interframe_hits");
}

} // namespace texpim
