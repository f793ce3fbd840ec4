/**
 * @file
 * Conservation laws over the exported stat snapshot.
 *
 * Each identity relates stats that different statements update: a
 * transaction's read/write count against its row-buffer outcome, a
 * latency average against its histogram, a texture request against
 * its latency sample, a cache line against its L1 outcome. Images and
 * cycles cannot see a stat bound to the wrong name, but these sums
 * can. The checks read StatRegistry::snapshot() after the render, so
 * the timing path carries no extra code for them.
 *
 * Physical lower bounds close the file: a frame cannot finish before
 * its off-chip bytes have crossed the memory interface at peak
 * bandwidth, nor before its shaded fragments have passed the clusters'
 * fragment pipelines. They hold for any correct timing model, so they
 * also catch a replay that drops or reorders work into an impossible
 * schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "common/prof/profiler.hh"
#include "common/sim_context.hh"
#include "common/stat_registry.hh"
#include "scene/game_profiles.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

using Snapshot = StatRegistry::Snapshot;

/** The snapshot value of `key`; a missing key is a test failure. */
double
at(const Snapshot &snap, const std::string &key)
{
    auto it = snap.find(key);
    if (it == snap.end()) {
        ADD_FAILURE() << "no stat '" << key << "' in the snapshot";
        return -1.0;
    }
    return it->second;
}

/** A design's name with its punctuation dropped ("B-PIM" -> "BPIM"),
 *  as a test-parameter name. */
std::string
designParamName(const ::testing::TestParamInfo<Design> &info)
{
    std::string name;
    for (char c : std::string(designName(info.param)))
        if (std::isalnum((unsigned char)c))
            name += c;
    return name;
}

/** Identities every memory model's group must satisfy. */
void
checkMemory(const Snapshot &snap, const std::string &g)
{
    SCOPED_TRACE(g);
    double txns = at(snap, g + ".reads") + at(snap, g + ".writes");
    EXPECT_GT(txns, 0.0);
    EXPECT_EQ(txns, at(snap, g + ".row_hits") + at(snap, g + ".row_misses") +
                        at(snap, g + ".row_conflicts"));
    EXPECT_EQ(at(snap, g + ".latency.count"), txns);
    EXPECT_EQ(at(snap, g + ".latency_hist.samples"), txns);
}

class Conservation : public ::testing::TestWithParam<Design>
{
};

TEST_P(Conservation, Doom3SnapshotBalances)
{
    Workload wl{Game::Doom3, 320, 240};
    Scene scene = buildGameScene(wl, 3, 0x7e01d);
    scene.settings.maxAniso = defaultMaxAniso(wl.width);

    SimContext ctx;
    SimContext::Scope scope(ctx);
    SimConfig cfg;
    cfg.design = GetParam();
    RenderingSimulator sim(cfg);
    (void)sim.renderScene(scene);
    Snapshot snap = ctx.stats().snapshot();

    // Memory: the model the design renders through.
    bool gddr5 = GetParam() == Design::Baseline;
    std::string mem = gddr5 ? "gddr5" : "hmc";
    checkMemory(snap, mem);
    if (gddr5) {
        // Every transaction lands in exactly one latency_<class>.
        const std::string suffix = ".count";
        double per_class = 0.0;
        for (const auto &[key, value] : snap)
            if (key.rfind("gddr5.latency_", 0) == 0 &&
                key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                per_class += value;
        EXPECT_EQ(per_class, at(snap, "gddr5.reads") +
                                 at(snap, "gddr5.writes"));
        EXPECT_GT(at(snap, "gddr5.latency_texture.count"), 0.0);
    }

    // Texture path: one latency sample per request.
    const TexturePath &path = sim.texturePath();
    const std::string tex = path.stats().name();
    double requests = double(path.requests());
    EXPECT_GT(requests, 0.0);
    EXPECT_EQ(at(snap, tex + ".latency.samples"), requests);

    if (tex == "tex_host") {
        // Each line a request touches is one L1 lookup; each L1 miss
        // one L2 lookup.
        EXPECT_EQ(at(snap, "tex_host.l1_hits") +
                      at(snap, "tex_host.l1_misses"),
                  at(snap, "tex_host.lines"));
        EXPECT_EQ(at(snap, "tex_host.l2_hits") +
                      at(snap, "tex_host.l2_misses"),
                  at(snap, "tex_host.l1_misses"));
        EXPECT_EQ(at(snap, "tex_host.lat_total.count"), requests);
    }
    if (tex == "tex_atfim") {
        // Each parent texel is one angle-checked L1 lookup; each L1
        // non-hit one L2 lookup.
        double l1_out = at(snap, "tex_atfim.l1_misses") +
                        at(snap, "tex_atfim.l1_angle_recalcs");
        EXPECT_EQ(at(snap, "tex_atfim.l1_hits") + l1_out,
                  at(snap, "tex_atfim.parents"));
        EXPECT_EQ(at(snap, "tex_atfim.l2_hits") +
                      at(snap, "tex_atfim.l2_misses") +
                      at(snap, "tex_atfim.l2_angle_recalcs"),
                  l1_out);

        // Fault-free, every L2 non-hit is offloaded in one package per
        // request, each parent expands to its sample's N children, and
        // every consolidated child block is one vault read.
        double offloaded = at(snap, "tex_atfim.parents_offloaded");
        double children = at(snap, "tex_atfim.children_generated");
        EXPECT_GT(offloaded, 0.0);
        EXPECT_EQ(offloaded, at(snap, "tex_atfim.l2_misses") +
                                 at(snap, "tex_atfim.l2_angle_recalcs"));
        EXPECT_EQ(at(snap, "tex_atfim.texel_gen_ops"), children);
        EXPECT_EQ(at(snap, "tex_atfim.combine_ops"), children);
        double blocks = at(snap, "tex_atfim.child_blocks_fetched");
        EXPECT_EQ(at(snap, "hmc.internal_reads"), blocks);
        EXPECT_LE(blocks, children);
        double packages = at(snap, "tex_atfim.offload_packages");
        EXPECT_EQ(at(snap, "hmc.packages_to_device"), packages);
        EXPECT_EQ(at(snap, "hmc.packages_to_host"), packages);
        EXPECT_LE(offloaded, children);
        EXPECT_LE(children, offloaded * scene.settings.maxAniso);

        // A stored parent value is read only on an angle-valid hit,
        // and each read is one reuse_error sample.
        double reused = at(snap, "tex_atfim.reuse_error.count");
        EXPECT_GT(reused, 0.0);
        EXPECT_LE(reused, at(snap, "tex_atfim.l1_hits") +
                              at(snap, "tex_atfim.l2_hits"));
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, Conservation,
                         ::testing::Values(Design::Baseline, Design::BPim,
                                           Design::STfim, Design::ATfim),
                         designParamName);

/**
 * Aniso accounting on one small frame, pinned to exact counts: every
 * design records the same texture requests, so each must report the
 * same sum of aniso ratios over them (aniso_samples) and the same
 * frame average over its shaded fragments' base samples
 * (avg_aniso_ratio). A detail layer scales uv uniformly, so its
 * sample has its base sample's N; the average pin therefore catches
 * replay reading a wrong sample index (fr.detail for every fragment
 * reads 59,752), not a detail layer read in the base's place.
 */
class AnisoAccounting : public ::testing::TestWithParam<Design>
{
  protected:
    /** Doom3 160x120 frame 3 under the design, with its snapshot. */
    SimResult
    render(Snapshot *snap = nullptr, std::string *tex = nullptr)
    {
        Workload wl{Game::Doom3, 160, 120};
        Scene scene = buildGameScene(wl, 3, 0x7e01d);

        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = GetParam();
        RenderingSimulator sim(cfg);
        SimResult r = sim.renderScene(scene);
        if (snap)
            *snap = ctx.stats().snapshot();
        if (tex)
            *tex = sim.texturePath().stats().name();
        return r;
    }
};

TEST_P(AnisoAccounting, FrameAverageIsPinned)
{
    SimResult r = render();
    EXPECT_EQ(r.frame.fragmentsShaded, 19204u);
    EXPECT_EQ(std::llround(r.frame.avgAnisoRatio *
                           double(r.frame.fragmentsShaded)),
              59938);
}

TEST_P(AnisoAccounting, EveryPathCountsAnisoSamples)
{
    Snapshot snap;
    std::string tex;
    SimResult r = render(&snap, &tex);
    EXPECT_EQ(r.frame.texRequests, 35543u);
    EXPECT_EQ(at(snap, tex + ".aniso_samples"), 108470.0);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, AnisoAccounting,
                         ::testing::Values(Design::Baseline, Design::BPim,
                                           Design::STfim, Design::ATfim),
                         designParamName);

/**
 * The profiler's mem/tagcache count is charged once per frame from the
 * cache totals the energy model reads, not inside the caches, so it
 * must equal the lookups the stats count one by one: the texture
 * path's L1 and L2 outcomes, one ROP Z lookup per covered fragment and
 * one color lookup per shaded fragment. S-TFIM's texture path has no
 * caches.
 */
class TagCacheProfile : public ::testing::TestWithParam<Design>
{
};

TEST_P(TagCacheProfile, CountEqualsCountedLookups)
{
    Workload wl{Game::Doom3, 160, 120};
    Scene scene = buildGameScene(wl, 3, 0x7e01d);

    SimContext ctx;
    SimContext::Scope scope(ctx);
    SimConfig cfg;
    cfg.design = GetParam();
    RenderingSimulator sim(cfg);
    Profiler::instance().enable();
    SimResult r = sim.renderScene(scene);
    Profiler::instance().disable();
    Snapshot snap = ctx.stats().snapshot();
    const std::string tex = sim.texturePath().stats().name();

    double lookups = double(r.frame.fragmentsCovered) +
                     double(r.frame.fragmentsShaded);
    if (tex != "tex_stfim") {
        for (const char *level : {".l1_", ".l2_"})
            for (const char *outcome : {"hits", "misses"})
                lookups += at(snap, tex + level + outcome);
    }
    if (tex == "tex_atfim")
        lookups += at(snap, "tex_atfim.l1_angle_recalcs") +
                   at(snap, "tex_atfim.l2_angle_recalcs");
    EXPECT_GT(r.frame.fragmentsShaded, 0u);
    EXPECT_EQ(double(Profiler::instance().row(prof::kZoneTagCache).count),
              lookups);
}

INSTANTIATE_TEST_SUITE_P(CacheDesigns, TagCacheProfile,
                         ::testing::Values(Design::Baseline, Design::STfim,
                                           Design::ATfim),
                         designParamName);

/**
 * Each profile fact is charged at one site. pim/package is logic-layer
 * execution, once per offload: A-TFIM's compacted package, S-TFIM's
 * request (a request and a response package each). The HMC transfers
 * charge only mem/hmc/link.
 */
TEST(ProfileZones, PimPackageChargedOncePerOffload)
{
    Workload wl{Game::Doom3, 160, 120};
    Scene scene = buildGameScene(wl, 3, 0x7e01d);
    for (Design d : {Design::STfim, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = d;
        RenderingSimulator sim(cfg);
        Profiler::instance().enable();
        (void)sim.renderScene(scene);
        Profiler::instance().disable();
        Snapshot snap = ctx.stats().snapshot();

        double offloads = d == Design::ATfim
                              ? at(snap, "tex_atfim.offload_packages")
                              : at(snap, "tex_stfim.packages") / 2;
        const Profiler::ZoneRow &pkg =
            Profiler::instance().row(prof::kZonePimPackage);
        EXPECT_GT(offloads, 0.0);
        EXPECT_EQ(double(pkg.count), offloads);
    }
}

/**
 * The wall column is FrameStats' clock: each wall row is the sum of
 * its FrameStats field(s) over the frames, added in frame order, so
 * the doubles compare exactly. At depth 2 the set-up of frames 1 and
 * 2 runs on another thread and still counts.
 */
TEST(ProfileZones, WallColumnIsTheFrameStatsClock)
{
    for (unsigned depth : {1u, 2u}) {
        SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.gpu.pipelineDepth = depth;
        RenderingSimulator sim(cfg);
        Profiler::instance().enable();
        std::vector<SimResult> frames =
            sim.renderSequence({Game::Doom3, 160, 120}, 3);
        Profiler::instance().disable();
        ASSERT_EQ(frames.size(), 3u);

        double frame = 0, sample = 0, replay = 0, wait = 0;
        for (const SimResult &r : frames) {
            frame += r.frame.wallPhase1Sec + r.frame.wallPhase2Sec;
            sample += r.frame.wallPhase1Sec;
            replay += r.frame.wallPhase2Sec;
            wait += r.frame.wallReplayWaitSec;
        }
        const Profiler &p = Profiler::instance();
        EXPECT_GT(frame, 0.0);
        EXPECT_EQ(p.row(prof::kZoneFrame).wallSec, frame);
        EXPECT_EQ(p.row(prof::kZoneSample).wallSec, sample);
        EXPECT_EQ(p.row(prof::kZoneReplay).wallSec, replay);
        EXPECT_EQ(p.row(prof::kZoneWait).wallSec, wait);
        EXPECT_EQ(p.row(prof::kZoneGeometry).wallSec, 0.0);
    }
}

/**
 * Texture L1 outcomes pinned to exact counts. Each cluster's L1 is
 * private, so its outcomes depend only on the cluster's own access
 * sequence: its tiles in list order, fragments in raster order, base
 * sample before detail. Neither gpu.schedule nor gpu.render_threads
 * may move them, and B-PIM sees Baseline's lines. The pins were read
 * from a renderer that ran the L1 lookups inside the serial replay,
 * so they also hold the record-side L1 to that serial reference.
 */
class L1Accounting : public ::testing::TestWithParam<Design>
{
  protected:
    /** Host paths pin lines = hits + misses; A-TFIM pins its angle
     *  recalculations instead. */
    struct Pin
    {
        double hits, misses, third;
    };

    bool atfim() const { return GetParam() == Design::ATfim; }

    SimConfig
    config(unsigned threads, GpuParams::Schedule sched) const
    {
        SimConfig cfg;
        cfg.design = GetParam();
        cfg.gpu.renderThreads = threads;
        cfg.gpu.schedule = sched;
        return cfg;
    }
};

TEST_P(L1Accounting, FrameCountsHoldAtAnyScheduleAndThreadCount)
{
    struct GamePin
    {
        Game game;
        Pin host, atfim;
    };
    const GamePin pins[] = {
        {Game::Doom3, {118877, 17971, 136848}, {261328, 16570, 5118}},
        {Game::HalfLife2, {152751, 18429, 171180}, {333358, 16879, 8371}},
    };
    for (const GamePin &gp : pins) {
        Scene scene = buildGameScene({gp.game, 160, 120}, 3, 0x7e01d);
        const Pin &pin = atfim() ? gp.atfim : gp.host;
        for (unsigned threads : {1u, 4u}) {
            for (GpuParams::Schedule sched :
                 {GpuParams::Schedule::Horizon,
                  GpuParams::Schedule::RoundRobin}) {
                SCOPED_TRACE(std::string(gameName(gp.game)) +
                             " threads=" + std::to_string(threads) +
                             (sched == GpuParams::Schedule::Horizon
                                  ? " horizon"
                                  : " rr"));
                SimContext ctx;
                SimContext::Scope scope(ctx);
                RenderingSimulator sim(config(threads, sched));
                (void)sim.renderScene(scene);
                Snapshot snap = ctx.stats().snapshot();
                const std::string tex = sim.texturePath().stats().name();
                EXPECT_EQ(at(snap, tex + ".l1_hits"), pin.hits);
                EXPECT_EQ(at(snap, tex + ".l1_misses"), pin.misses);
                EXPECT_EQ(at(snap, tex + (atfim() ? ".l1_angle_recalcs"
                                                  : ".lines")),
                          pin.third);
            }
        }
    }
}

TEST_P(L1Accounting, InterFrameHitsOnTwoFramePath)
{
    // The two-frame Riddick path the sequence census pins render:
    // frame 1's L1 hits on lines warm from frame 0.
    const double want = atfim() ? 21 : 195;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(
            config(threads, GpuParams::Schedule::Horizon));
        (void)sim.renderSequence({Game::Riddick, 160, 120}, 2);
        Snapshot snap = ctx.stats().snapshot();
        const std::string tex = sim.texturePath().stats().name();
        EXPECT_EQ(at(snap, tex + ".l1_interframe_hits"), want);
    }
}

INSTANTIATE_TEST_SUITE_P(CacheDesigns, L1Accounting,
                         ::testing::Values(Design::Baseline, Design::BPim,
                                           Design::ATfim),
                         designParamName);

class PhysicalBounds : public ::testing::TestWithParam<Design>
{
};

TEST_P(PhysicalBounds, FrameCyclesCoverBandwidthAndFragmentWork)
{
    for (Game game : {Game::Doom3, Game::HalfLife2}) {
        SCOPED_TRACE(gameName(game));
        Workload wl{game, 320, 240};
        Scene scene = buildGameScene(wl, 3, 0x7e01d);
        scene.settings.maxAniso = defaultMaxAniso(wl.width);

        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = GetParam();
        RenderingSimulator sim(cfg);
        SimResult r = sim.renderScene(scene);
        const double cycles = double(r.frame.frameCycles);

        // Bandwidth: every off-chip byte crosses the interface no
        // faster than its peak rate. Scanout (the FrameBuffer class)
        // is issued at frame end, after the frame's last cycle, so it
        // is excluded.
        const u64 scanout = r.offChipBytesByClass[unsigned(
            TrafficClass::FrameBuffer)];
        EXPECT_GT(scanout, 0u);
        double bytes = double(r.offChipTotalBytes - scanout);
        EXPECT_GT(bytes, 0.0);
        EXPECT_GE(cycles, bytes / sim.memory().peakOffChipBytesPerCycle());

        // Fragment work: each shaded fragment occupies its cluster for
        // the fixed-function pipeline or its share of the shader ALU
        // time, whichever is longer, after geometry; the busiest of
        // the clusters takes at least the average.
        const GpuParams &gpu = cfg.gpu;
        double per_frag = double(std::max<Cycle>(
            gpu.fragmentPipelineCycles,
            (gpu.fragmentShaderCycles + gpu.shadersPerCluster - 1) /
                gpu.shadersPerCluster));
        EXPECT_GT(r.frame.fragmentsShaded, 0u);
        EXPECT_GE(cycles, double(r.frame.geometryCycles) +
                              double(r.frame.fragmentsShaded) * per_frag /
                                  gpu.clusters);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, PhysicalBounds,
                         ::testing::Values(Design::Baseline, Design::BPim,
                                           Design::STfim, Design::ATfim),
                         designParamName);

} // namespace
} // namespace texpim
