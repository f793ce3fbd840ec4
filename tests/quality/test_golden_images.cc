/**
 * @file
 * Golden-image regression test: render the smallest paper workload
 * (Doom3 320x240, frame 3) under all four designs with the pinned
 * round-robin tile schedule (gpu.schedule=rr), and pin the FNV-1a hash of
 * every framebuffer to a checked-in golden. Any change to
 * rasterization, texturing, filtering order or the A-TFIM
 * recalculation policy that perturbs even one pixel fails here first.
 *
 * The goldens were produced by the texpim CLI itself:
 *
 *   texpim sweep doom3 width=320 height=240 \
 *       gpu.schedule=rr metrics_out=golden.json
 *
 * and are stable across build types because the root CMakeLists
 * compiles with -ffp-contract=off (no FMA-contraction drift between
 * -O0 and -O2). If a rendering change is *intentional*, regenerate
 * with the command above and update the table.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "quality/image_metrics.hh"
#include "sim/runner/experiment_runner.hh"

namespace texpim {
namespace {

constexpr unsigned kWidth = 320;
constexpr unsigned kHeight = 240;

/** The same spec `texpim sweep <game> width=320 height=240
 *  gpu.schedule=rr` builds. */
ExperimentSpec
goldenSpec(Design d, Game game = Game::Doom3)
{
    ExperimentSpec spec;
    spec.config.design = d;
    spec.config.gpu.schedule = GpuParams::Schedule::RoundRobin;
    spec.workload = Workload{game, kWidth, kHeight};
    spec.frame = 3;
    spec.seed = 0x7e01d;
    spec.maxAniso = 0; // defaultMaxAniso(320)
    return spec;
}

struct Golden
{
    Design design;
    u64 hash;
};

// Baseline, B-PIM and S-TFIM share a hash by design: they compute the
// exact same filtered colors and differ only in where/when the
// filtering happens. A-TFIM's angle-threshold reuse is the one design
// that approximates, so its image (alone) diverges.
//
// The A-TFIM golden was regenerated when the per-tile front-to-back
// sort gained its triangle-index tiebreak: equal-minDepth triangles
// previously sat in whatever order the stdlib's unstable sort left
// them, and A-TFIM's request-order-dependent reuse saw that order.
// The exact designs' hash was unaffected — depth resolution does not
// depend on the tie order.
const Golden kGoldens[] = {
    {Design::Baseline, 0x5cc24ff74d8da65aull},
    {Design::BPim, 0x5cc24ff74d8da65aull},
    {Design::STfim, 0x5cc24ff74d8da65aull},
    {Design::ATfim, 0xd043d5e2285cf9cfull},
};

// Second workload: Half-Life 2 at the same 320x240/frame-3 spec
// (`texpim sweep hl2 width=320 height=240 gpu.schedule=rr`).
// Doom3's corridor geometry leans on oblique anisotropy; HL2's profile
// weights the detail-texture layer and different filter settings, so a
// regression that happens to cancel out on Doom3 still trips here.
const Golden kGoldensHl2[] = {
    {Design::Baseline, 0x3a10fe761ff574fdull},
    {Design::BPim, 0x3a10fe761ff574fdull},
    {Design::STfim, 0x3a10fe761ff574fdull},
    {Design::ATfim, 0xb89eefd3e6b4ad90ull},
};

class GoldenImages : public ::testing::Test
{
  protected:
    /** Render once per design, shared across the tests in this file. */
    static const std::map<Design, ExperimentResult> &
    results()
    {
        static const std::map<Design, ExperimentResult> cache = [] {
            std::map<Design, ExperimentResult> out;
            for (const Golden &g : kGoldens) {
                SimContext ctx;
                SimContext::Scope scope(ctx);
                out.emplace(g.design,
                            ExperimentRunner::runOne(goldenSpec(g.design)));
            }
            return out;
        }();
        return cache;
    }
};

TEST_F(GoldenImages, AllDesignsMatchCheckedInHashes)
{
    for (const Golden &g : kGoldens) {
        const ExperimentResult &r = results().at(g.design);
        EXPECT_EQ(r.imageFnv1a, g.hash)
            << designName(g.design) << " rendered a different image; "
            << "if intentional, regenerate the goldens (see file "
            << "comment). got 0x" << std::hex << r.imageFnv1a;
    }
}

TEST_F(GoldenImages, HalfLife2MatchesCheckedInHashes)
{
    // One render per design; exact designs must also agree with each
    // other, as on Doom3.
    u64 exact_hash = 0;
    for (const Golden &g : kGoldensHl2) {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        ExperimentResult r =
            ExperimentRunner::runOne(goldenSpec(g.design, Game::HalfLife2));
        EXPECT_EQ(r.imageFnv1a, g.hash)
            << designName(g.design) << " rendered a different HL2 image; "
            << "if intentional, regenerate with `texpim sweep hl2 "
            << "width=320 height=240 gpu.schedule=rr`. got 0x"
            << std::hex << r.imageFnv1a;
        if (g.design != Design::ATfim) {
            if (exact_hash == 0)
                exact_hash = r.imageFnv1a;
            EXPECT_EQ(r.imageFnv1a, exact_hash) << designName(g.design);
        }
    }
}

TEST_F(GoldenImages, ExactDesignsRenderIdenticalImages)
{
    // The three exact designs must stay pixel-identical to each other
    // even if all three goldens move together.
    EXPECT_EQ(results().at(Design::Baseline).imageFnv1a,
              results().at(Design::BPim).imageFnv1a);
    EXPECT_EQ(results().at(Design::Baseline).imageFnv1a,
              results().at(Design::STfim).imageFnv1a);
}

TEST_F(GoldenImages, AtfimQualityStaysAbove45Db)
{
    // §VII-C of the paper: at the default 0.01 pi threshold the
    // A-TFIM approximation is visually lossless; we pin >= 45 dB.
    const ExperimentResult &base = results().at(Design::Baseline);
    const ExperimentResult &atfim = results().at(Design::ATfim);
    ASSERT_NE(base.result.image, nullptr);
    ASSERT_NE(atfim.result.image, nullptr);
    double db = psnr(*base.result.image, *atfim.result.image);
    EXPECT_GE(db, 45.0) << "A-TFIM quality regressed";
    // ... while actually exercising the approximation.
    EXPECT_GT(atfim.result.angleRecalcs, 0u);
}

TEST_F(GoldenImages, RenderThreadsDoNotChangeResults)
{
    // The two-phase renderer's contract: the serial record/replay
    // pipeline (render_threads=1, what the cached fixture results
    // used) and the parallel functional phase (=2, =4) are
    // bit-identical in image, cycles and every stat — for all four
    // designs, including A-TFIM, whose functional output depends on
    // the serial timing-model cache state.
    for (unsigned threads : {2u, 4u}) {
        for (const Golden &g : kGoldens) {
            SCOPED_TRACE(std::string(designName(g.design)) + " threads=" +
                         std::to_string(threads));
            SimContext ctx;
            SimContext::Scope scope(ctx);
            ExperimentSpec spec = goldenSpec(g.design);
            spec.config.gpu.renderThreads = threads;
            ExperimentResult r = ExperimentRunner::runOne(spec);

            const ExperimentResult &ref = results().at(g.design);
            EXPECT_EQ(r.imageFnv1a, ref.imageFnv1a);
            EXPECT_EQ(r.result.frame.frameCycles,
                      ref.result.frame.frameCycles);
            EXPECT_EQ(r.result.textureFilterCycles,
                      ref.result.textureFilterCycles);
            EXPECT_EQ(r.result.offChipTotalBytes,
                      ref.result.offChipTotalBytes);
            EXPECT_EQ(r.result.angleRecalcs, ref.result.angleRecalcs);
            // The full stat snapshot, every key and value.
            EXPECT_EQ(r.stats, ref.stats);
        }
    }
}

TEST_F(GoldenImages, HorizonScheduleThreadsInvariantToo)
{
    // Same contract under the default lowest-issue-horizon scheduler:
    // phase 2 recomputes the horizon from replayed clocks and windows,
    // so tile order — and therefore everything — is independent of the
    // phase-1 worker count even when the schedule is timing-fed. One
    // design suffices for the exact paths; A-TFIM is the stress case.
    for (Design d : {Design::Baseline, Design::ATfim}) {
        ExperimentResult runs[2];
        unsigned threads[2] = {1u, 4u};
        for (int i = 0; i < 2; ++i) {
            SimContext ctx;
            SimContext::Scope scope(ctx);
            ExperimentSpec spec = goldenSpec(d);
            spec.config.gpu.schedule = GpuParams::Schedule::Horizon;
            spec.config.gpu.renderThreads = threads[i];
            runs[i] = ExperimentRunner::runOne(spec);
        }
        SCOPED_TRACE(designName(d));
        EXPECT_EQ(runs[0].imageFnv1a, runs[1].imageFnv1a);
        EXPECT_EQ(runs[0].result.frame.frameCycles,
                  runs[1].result.frame.frameCycles);
        EXPECT_EQ(runs[0].stats, runs[1].stats);
    }
}

TEST_F(GoldenImages, HashIsStableAndSensitive)
{
    // imageHash is the contract the goldens rely on: re-hashing the
    // same framebuffer is stable, and any single-pixel change moves it.
    const ExperimentResult &base = results().at(Design::Baseline);
    FrameBuffer copy = *base.result.image;
    EXPECT_EQ(imageHash(copy), base.imageFnv1a);
    Rgba8 c = copy.pixel(kWidth / 2, kHeight / 2);
    c.r = u8(c.r ^ 0x80);
    copy.setPixel(kWidth / 2, kHeight / 2, c);
    EXPECT_NE(imageHash(copy), base.imageFnv1a);
}

} // namespace
} // namespace texpim
