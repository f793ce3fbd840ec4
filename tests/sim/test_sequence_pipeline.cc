/**
 * @file
 * Inter-frame pipeline tests: renderSequence must produce bit-identical
 * per-frame images, cycle counts and statistics at every
 * gpu.pipeline_depth x gpu.render_threads combination (the pipelined
 * functional phase cannot be allowed to perturb the timing replay),
 * plus golden-hash chains for two game sequences, inter-frame reuse
 * accounting, the replay peak-memory bound, and cancellation and
 * teardown of the record -> replay streaming window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/deadline.hh"
#include "common/sim_context.hh"
#include "common/stat_registry.hh"
#include "quality/image_metrics.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

// Small frame so the full depth x threads x design matrix stays fast;
// the golden chains below use the paper's 320x240.
const Workload kSmall{Game::Riddick, 160, 120};

SimConfig
seqCfg(Design d, unsigned threads, unsigned depth)
{
    SimConfig cfg;
    cfg.design = d;
    cfg.gpu.renderThreads = threads;
    cfg.gpu.pipelineDepth = depth;
    return cfg;
}

/** Everything one frame must hold invariant across pipeline shapes. */
struct FramePrint
{
    u64 image;
    Cycle cycles;
    u64 filterCycles;
    u64 offChip;
    u64 recalcs;
    u64 tagHits;
    u64 uniqueBlocks;
    u64 reusedPrev;

    bool
    operator==(const FramePrint &o) const
    {
        return image == o.image && cycles == o.cycles &&
               filterCycles == o.filterCycles && offChip == o.offChip &&
               recalcs == o.recalcs && tagHits == o.tagHits &&
               uniqueBlocks == o.uniqueBlocks && reusedPrev == o.reusedPrev;
    }
};

struct SeqPrint
{
    std::vector<FramePrint> frames;
    StatRegistry::Snapshot stats;
};

SeqPrint
runSeq(const SimConfig &cfg, const Workload &wl, unsigned num_frames)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    RenderingSimulator sim(cfg);
    auto results = sim.renderSequence(wl, num_frames);
    SeqPrint out;
    for (const SimResult &r : results)
        out.frames.push_back({imageHash(*r.image), r.frame.frameCycles,
                              r.textureFilterCycles, r.offChipTotalBytes,
                              r.angleRecalcs, r.interFrameTagHits,
                              r.seqUniqueBlocks, r.seqBlocksReusedPrev});
    // Snapshot while the simulator is alive: the full registry, every
    // group (renderer, caches, memory, sequence) and every value.
    out.stats = ctx.stats().snapshot();
    return out;
}

TEST(SequencePipeline, DepthAndThreadsAreBitInvariant)
{
    // The ISSUE's core acceptance: every pipeline_depth x
    // render_threads combination, all four designs, identical frames
    // AND identical end-of-run stat registry.
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SeqPrint ref = runSeq(seqCfg(d, 1, 1), kSmall, 3);
        ASSERT_EQ(ref.frames.size(), 3u);
        for (unsigned threads : {1u, 4u}) {
            for (unsigned depth : {1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(designName(d)) + " threads=" +
                             std::to_string(threads) + " depth=" +
                             std::to_string(depth));
                SeqPrint run = runSeq(seqCfg(d, threads, depth), kSmall, 3);
                ASSERT_EQ(run.frames.size(), ref.frames.size());
                for (size_t f = 0; f < ref.frames.size(); ++f) {
                    SCOPED_TRACE("frame " + std::to_string(f));
                    EXPECT_TRUE(run.frames[f] == ref.frames[f]);
                    EXPECT_EQ(run.frames[f].image, ref.frames[f].image);
                    EXPECT_EQ(run.frames[f].cycles, ref.frames[f].cycles);
                }
                EXPECT_EQ(run.stats, ref.stats);
            }
        }
    }
}

TEST(SequencePipeline, SharedTextureStoreRendersLikeFreshScenes)
{
    // A sequence builds the level's textures once and later frames
    // adopt the store. Each frame must still render what a scene built
    // from scratch renders: Baseline is exact, so a warm sequence frame
    // equals the same frame rendered cold from its own scene.
    constexpr unsigned kFrames = 3;
    std::vector<u64> fresh;
    for (unsigned f = 0; f < kFrames; ++f) {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(seqCfg(Design::Baseline, 1, 1));
        SimResult r = sim.renderScene(buildGameScene(kSmall, f));
        fresh.push_back(imageHash(*r.image));
    }
    for (unsigned depth : {1u, 2u}) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        SeqPrint run = runSeq(seqCfg(Design::Baseline, 2, depth), kSmall,
                              kFrames);
        ASSERT_EQ(run.frames.size(), size_t(kFrames));
        for (unsigned f = 0; f < kFrames; ++f)
            EXPECT_EQ(run.frames[f].image, fresh[f]) << "frame " << f;
    }
}

TEST(SequencePipeline, RoundRobinSchedulerInvariantToo)
{
    // Same contract under the pinned round-robin scheduler (the other
    // scheduler renderSequence supports); the horizon scheduler is the
    // default exercised above.
    for (Design d : {Design::Baseline, Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimConfig serial = seqCfg(d, 1, 1);
        serial.gpu.schedule = GpuParams::Schedule::RoundRobin;
        SimConfig piped = seqCfg(d, 4, 4);
        piped.gpu.schedule = GpuParams::Schedule::RoundRobin;
        SeqPrint a = runSeq(serial, kSmall, 3);
        SeqPrint b = runSeq(piped, kSmall, 3);
        ASSERT_EQ(a.frames.size(), b.frames.size());
        for (size_t f = 0; f < a.frames.size(); ++f)
            EXPECT_TRUE(a.frames[f] == b.frames[f]) << "frame " << f;
        EXPECT_EQ(a.stats, b.stats);
    }
}

TEST(SequencePipeline, ReuseAccountingSeesFrameToFrameOverlap)
{
    SimConfig cfg = seqCfg(Design::Baseline, 1, 1);
    SimContext ctx;
    SimContext::Scope scope(ctx);
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kSmall, 2);

    // Frame 0 touches blocks but has no predecessor to reuse from.
    EXPECT_GT(frames[0].seqUniqueBlocks, 0u);
    EXPECT_EQ(frames[0].seqBlocksReusedPrev, 0u);
    EXPECT_EQ(frames[0].interFrameTagHits, 0u);

    // The camera pans smoothly, so consecutive frames share most of
    // their texel working set — both in the footprint census and as
    // warm tag-cache hits.
    EXPECT_GT(frames[1].seqBlocksReusedPrev, 0u);
    EXPECT_LE(frames[1].seqBlocksReusedPrev, frames[1].seqUniqueBlocks);
    EXPECT_GT(frames[1].interFrameTagHits, 0u);

    // The census itself is pinned: a rewrite that shifted every
    // pipeline shape alike would still pass the invariance tests.
    EXPECT_EQ(frames[0].seqUniqueBlocks, 10788u);
    EXPECT_EQ(frames[1].seqUniqueBlocks, 10915u);
    EXPECT_EQ(frames[1].seqBlocksReusedPrev, 6590u);

    // And the "sequence" stat group accumulates the same numbers.
    StatRegistry::Snapshot s = ctx.stats().snapshot();
    EXPECT_EQ(s.at("sequence.frames"), 2.0);
    EXPECT_EQ(s.at("sequence.unique_blocks"),
              double(frames[0].seqUniqueBlocks + frames[1].seqUniqueBlocks));
    EXPECT_EQ(s.at("sequence.blocks_reused_prev"),
              double(frames[1].seqBlocksReusedPrev));
    EXPECT_EQ(s.at("sequence.interframe_tag_hits"),
              double(frames[1].interFrameTagHits));
}

TEST(SequencePipeline, AtfimCountsInterFrameTagReuse)
{
    // A-TFIM's angle caches stay warm across frames by design (§V-C);
    // the epoch counters must see that as inter-frame hits.
    SimConfig cfg = seqCfg(Design::ATfim, 1, 2);
    SimContext ctx;
    SimContext::Scope scope(ctx);
    RenderingSimulator sim(cfg);
    auto frames = sim.renderSequence(kSmall, 2);
    EXPECT_EQ(frames[0].interFrameTagHits, 0u);
    EXPECT_GT(frames[1].interFrameTagHits, 0u);

    EXPECT_EQ(frames[0].seqUniqueBlocks, 39608u);
    EXPECT_EQ(frames[1].seqUniqueBlocks, 40004u);
    EXPECT_EQ(frames[1].seqBlocksReusedPrev, 23978u);
}

TEST(SequencePipeline, ReplayPeakMemoryStaysPerTile)
{
    // The replay streams tiles through a window holding one
    // unreplayed tile record per cluster, so the window's peak bytes
    // must be far below the whole frame's record. A regression that
    // records every tile ahead of the replay trips the 1/4 bound
    // immediately (a 160x120 frame has 80 tiles).
    SimConfig cfg = seqCfg(Design::Baseline, 1, 1);
    SimContext ctx;
    SimContext::Scope scope(ctx);
    RenderingSimulator sim(cfg);
    SimResult r = sim.renderScene(buildGameScene(kSmall, 3));
    EXPECT_GT(r.frame.recordBytesPeak, 0u);
    EXPECT_LT(r.frame.recordBytesPeak * 4, r.frame.recordBytesDecoded);
}

// --- Golden per-frame hash chains (satellite) -----------------------
//
// Rendered with the same spec as tests/quality/test_golden_images.cc
// (320x240, gpu.schedule=rr, frames 3..5 of the camera path). Frame
// hashes chain the whole sequence: a regression in warm-cache state
// that only shows up mid-sequence fails on the exact frame it
// perturbs. Baseline is an exact design, so each sequence frame also
// equals that frame rendered cold — frame 3's hash is the same
// constant the single-frame golden test pins.
struct GoldenChain
{
    Game game;
    u64 hashes[3];
};

const GoldenChain kChains[] = {
    // Frame 3 of each chain equals the corresponding single-frame
    // golden in tests/quality/test_golden_images.cc — keep them in
    // sync when regenerating.
    {Game::Doom3,
     {0x5cc24ff74d8da65aull, 0xd800474c5b9fdb5full,
      0xd5666d77c67826b2ull}},
    {Game::HalfLife2,
     {0x3a10fe761ff574fdull, 0x987aec383dabebacull,
      0x9fe8ac6b4223775aull}},
};

TEST(SequencePipeline, GoldenHashChains)
{
    for (const GoldenChain &chain : kChains) {
        SimConfig cfg = seqCfg(Design::Baseline, 1, 2);
        cfg.gpu.schedule = GpuParams::Schedule::RoundRobin;
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(cfg);
        auto frames =
            sim.renderSequence(Workload{chain.game, 320, 240}, 3, 3);
        ASSERT_EQ(frames.size(), 3u);
        for (unsigned f = 0; f < 3; ++f) {
            EXPECT_EQ(imageHash(*frames[f].image), chain.hashes[f])
                << gameName(chain.game) << " frame " << (3 + f)
                << " hash moved; if intentional, update the chain. got 0x"
                << std::hex << imageHash(*frames[f].image);
        }
    }
}

// --- PSNR over frames for the A-TFIM threshold sweep (satellite) ----

TEST(SequencePipeline, AtfimPsnrOverFramesByThreshold)
{
    // Per-frame exact references from the Baseline sequence, then the
    // A-TFIM approximation at three thresholds. Warm caches mean later
    // frames reuse more stale-angle parents, so the sequence is the
    // stress case the single-frame PSNR test cannot see. Quality must
    // stay visually lossless at the paper's default threshold on every
    // frame, and loosening the threshold must never *improve* quality.
    constexpr unsigned kFrames = 3;
    SimConfig base = seqCfg(Design::Baseline, 1, 1);
    SimContext bctx;
    std::vector<SimResult> exact;
    {
        SimContext::Scope scope(bctx);
        RenderingSimulator sim(base);
        exact = sim.renderSequence(kSmall, kFrames);
    }

    const float thresholds[] = {kThreshold0005Pi, kThreshold001Pi,
                                kThresholdNoRecalc};
    double min_psnr[3];
    for (int t = 0; t < 3; ++t) {
        SimConfig cfg = seqCfg(Design::ATfim, 1, 2);
        cfg.atfim.angleThresholdRad = thresholds[t];
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(kSmall, kFrames);
        min_psnr[t] = kIdenticalPsnr;
        for (unsigned f = 0; f < kFrames; ++f)
            min_psnr[t] = std::min(
                min_psnr[t], psnr(*exact[f].image, *frames[f].image));
    }
    // Strict and default thresholds: visually lossless on every frame.
    EXPECT_GE(min_psnr[0], 45.0);
    EXPECT_GE(min_psnr[1], 45.0);
    // Never recalculating is the quality floor of the sweep.
    EXPECT_LE(min_psnr[2], min_psnr[0] + 1e-9);
    EXPECT_GE(min_psnr[2], 25.0) << "no-recalc quality collapsed";
}

// --- Cancellation and teardown of the streaming window ---------------
//
// A replay that unwinds mid-frame must stop the record pool, wake every
// waiting recorder and join it before the frame's slots go away. The
// deadline is armed at half of a measured uncancelled run, so it
// expires mid-run whatever the build's speed (sanitizers, Debug); a
// fresh simulator must then render the golden frame again.

const Workload kFull{Game::Doom3, 640, 480};

// Doom3 640x480 frame 3 under A-TFIM, horizon schedule, default seed:
// what `texpim render doom3 width=640 height=480 design=atfim` renders.
constexpr u64 kFullAtfimHash = 0x8d3d4dd4100bba78ull;
constexpr Cycle kFullAtfimCycles = 137412;

using Clock = std::chrono::steady_clock;

/** Half the milliseconds since `t0`, at least 1. */
u64
halfElapsedMs(Clock::time_point t0)
{
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - t0)
                  .count();
    return std::max<u64>(1, u64(ms) / 2);
}

SimResult
renderCold(const SimConfig &cfg, const Scene &scene)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    RenderingSimulator sim(cfg);
    return sim.renderScene(scene);
}

TEST(SequencePipeline, DeadlineUnwindsAStreamingFrame)
{
    const SimConfig cfg = seqCfg(Design::ATfim, 4, 1);
    const Scene scene = buildGameScene(kFull, 3);

    Clock::time_point t0 = Clock::now();
    SimResult ref = renderCold(cfg, scene);
    u64 budget_ms = halfElapsedMs(t0);
    EXPECT_EQ(imageHash(*ref.image), kFullAtfimHash)
        << std::hex << imageHash(*ref.image);
    EXPECT_EQ(ref.frame.frameCycles, kFullAtfimCycles);

    {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(cfg);
        ctx.deadline().arm(budget_ms);
        EXPECT_THROW(sim.renderScene(scene), SimTimeout);
    }

    SimResult again = renderCold(cfg, scene);
    EXPECT_EQ(imageHash(*again.image), kFullAtfimHash);
    EXPECT_EQ(again.frame.frameCycles, kFullAtfimCycles);
}

TEST(SequencePipeline, DeadlineUnwindsAPipelinedSequence)
{
    // Depth 2: frame 4 is set up asynchronously while frame 3 streams.
    const SimConfig cfg = seqCfg(Design::ATfim, 4, 2);
    auto run = [&] {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(cfg);
        return sim.renderSequence(kFull, 2, 3);
    };

    Clock::time_point t0 = Clock::now();
    std::vector<SimResult> ref = run();
    u64 budget_ms = halfElapsedMs(t0);
    ASSERT_EQ(ref.size(), 2u);
    // A sequence's first frame is a cold frame.
    EXPECT_EQ(imageHash(*ref[0].image), kFullAtfimHash);
    EXPECT_EQ(ref[0].frame.frameCycles, kFullAtfimCycles);

    {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(cfg);
        ctx.deadline().arm(budget_ms);
        EXPECT_THROW(sim.renderSequence(kFull, 2, 3), SimTimeout);
    }

    std::vector<SimResult> again = run();
    ASSERT_EQ(again.size(), 2u);
    for (size_t f = 0; f < 2; ++f) {
        SCOPED_TRACE("frame " + std::to_string(3 + f));
        EXPECT_EQ(imageHash(*again[f].image), imageHash(*ref[f].image));
        EXPECT_EQ(again[f].frame.frameCycles, ref[f].frame.frameCycles);
    }
    EXPECT_EQ(imageHash(*again[0].image), kFullAtfimHash);
}

TEST(SequencePipeline, MoreRecordersThanTilesStayBitIdentical)
{
    // 64x48 is 12 tiles and 32x32 is 4: at most that many are ever
    // open, so most of the 7 pool threads find nothing to claim and
    // must still shut down cleanly at every frame's end.
    for (Workload wl : {Workload{Game::Doom3, 64, 48},
                        Workload{Game::Doom3, 32, 32}}) {
        for (Design d : {Design::Baseline, Design::ATfim}) {
            SCOPED_TRACE(std::string(designName(d)) + " " +
                         std::to_string(wl.width) + "x" +
                         std::to_string(wl.height));
            SeqPrint ref = runSeq(seqCfg(d, 1, 1), wl, 2);
            SeqPrint run = runSeq(seqCfg(d, 8, 2), wl, 2);
            ASSERT_EQ(run.frames.size(), ref.frames.size());
            for (size_t f = 0; f < ref.frames.size(); ++f)
                EXPECT_TRUE(run.frames[f] == ref.frames[f]) << "frame " << f;
            EXPECT_EQ(run.stats, ref.stats);
        }
    }
}

} // namespace
} // namespace texpim
