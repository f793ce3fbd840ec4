/**
 * @file
 * Camera-path sequence figure: frame-to-frame texel-block reuse and
 * the tile-issue schedules. The paper's inter-frame argument (§V-C)
 * is usually shown through A-TFIM recalculations
 * (bench/ablation_sequence); this bench shows the substrate those
 * ride on — how much of each frame's texel working set the previous
 * frame already touched, how much of it the tag caches actually
 * retain, and what the pinned round-robin tile schedule
 * (gpu.schedule=rr) costs in cycles against the default horizon
 * schedule.
 */

#include "bench_common.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Sequence - inter-frame reuse and tile schedules",
                "consecutive frames share most of their texel working "
                "set");

    const Workload wl{Game::Doom3, 640, 480};
    constexpr unsigned kFrames = 8;

    // --- Reuse profile per design -----------------------------------
    const Design designs[] = {Design::Baseline, Design::BPim,
                              Design::STfim, Design::ATfim};
    std::printf("%s, %u frames, warm:\n", wl.label().c_str(), kFrames);
    std::printf("  %-10s %14s %12s %14s\n", "design", "uniq blocks/f",
                "reused %", "tag hits");
    for (Design d : designs) {
        SimConfig cfg;
        cfg.design = d;
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(wl, kFrames, opt.frame, opt.seed);
        u64 uniq = 0, reused = 0, hits = 0;
        for (const SimResult &f : frames) {
            uniq += f.seqUniqueBlocks;
            reused += f.seqBlocksReusedPrev;
            hits += f.interFrameTagHits;
        }
        // Frame 0 has no predecessor; the reuse fraction is over the
        // frames that do.
        u64 uniq_tail = uniq - frames[0].seqUniqueBlocks;
        std::printf("  %-10s %14.0f %11.1f%% %14llu\n", designName(d),
                    double(uniq) / kFrames,
                    uniq_tail ? 100.0 * double(reused) / double(uniq_tail)
                              : 0.0,
                    (unsigned long long)hits);
    }

    // --- Per-frame detail (baseline) --------------------------------
    {
        SimConfig cfg;
        cfg.design = Design::Baseline;
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(wl, kFrames, opt.frame, opt.seed);
        std::printf("\n  baseline per frame:\n");
        std::printf("  %-7s %12s %12s %10s\n", "frame", "uniq blocks",
                    "reused", "tag hits");
        for (unsigned f = 0; f < kFrames; ++f)
            std::printf("  %-7u %12llu %12llu %10llu\n", f,
                        (unsigned long long)frames[f].seqUniqueBlocks,
                        (unsigned long long)frames[f].seqBlocksReusedPrev,
                        (unsigned long long)frames[f].interFrameTagHits);
    }

    // --- Tile-issue schedules ---------------------------------------
    // The timing-fed horizon schedule is the default the rest of the
    // repo reports; rr pins the functional order (see GpuParams).
    struct Sched
    {
        const char *name;
        GpuParams::Schedule schedule;
    };
    const Sched scheds[] = {
        {"horizon", GpuParams::Schedule::Horizon},
        {"rr", GpuParams::Schedule::RoundRobin},
    };
    std::printf("\n  baseline tile-issue schedule, total cycles over %u "
                "frames:\n",
                kFrames);
    for (const Sched &s : scheds) {
        SimConfig cfg;
        cfg.design = Design::Baseline;
        cfg.gpu.schedule = s.schedule;
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(wl, kFrames, opt.frame, opt.seed);
        double total = 0.0;
        for (const SimResult &f : frames)
            total += double(f.frame.frameCycles);
        std::printf("  %-10s %14.0f\n", s.name, total);
    }
    return 0;
}
