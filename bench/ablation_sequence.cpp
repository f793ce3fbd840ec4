/**
 * @file
 * Multi-frame fly-through study (§V-C's inter-frame case): render 8
 * consecutive frames per workload with warm caches and report how
 * A-TFIM's recalculation rate, traffic and quality evolve as the
 * camera moves — the regime the paper's captured traces live in, which
 * single cold frames cannot show.
 */

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fly-through - A-TFIM across consecutive frames",
                "SV-C: same parent texel address, different camera "
                "angle across frames drives recalculation");

    // A representative mid-size workload per game.
    const Workload wls[] = {
        {Game::Doom3, 640, 480},   {Game::Fear, 640, 480},
        {Game::HalfLife2, 640, 480}, {Game::Riddick, 640, 480},
        {Game::Wolfenstein, 640, 480},
    };
    constexpr unsigned kFrames = 8;

    for (const Workload &wl : wls) {
        // Warm baseline sequence for reference images and cycles.
        SimConfig base_cfg;
        base_cfg.design = Design::Baseline;
        RenderingSimulator base_sim(base_cfg);
        auto base = base_sim.renderSequence(wl, kFrames, opt.frame,
                                            opt.seed);

        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.atfim.angleThresholdRad = kThreshold001Pi;
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(wl, kFrames, opt.frame, opt.seed);

        std::printf("%s (A-TFIM-001pi, warm):\n", wl.label().c_str());
        std::printf("  %-7s %10s %12s %10s %8s\n", "frame", "speedup",
                    "recalcs", "tex MB", "PSNR");
        for (unsigned f = 0; f < kFrames; ++f) {
            double sp = double(base[f].frame.frameCycles) /
                        double(frames[f].frame.frameCycles);
            std::printf("  %-7u %9.2fx %12llu %10.2f %8.1f\n", f, sp,
                        (unsigned long long)frames[f].angleRecalcs,
                        double(frames[f].textureTrafficBytes) / 1e6,
                        psnr(*base[f].image, *frames[f].image));
        }
        std::printf("\n");
    }
    return 0;
}
