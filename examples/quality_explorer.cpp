/**
 * @file
 * Quality explorer: render a workload under the baseline and under
 * A-TFIM at every camera-angle threshold the paper studies (§VII-D),
 * reporting PSNR, SSIM, differing-pixel counts and the recalculation
 * rate, and writing the frames as PPM images for visual inspection.
 *
 * Usage: quality_explorer [game] [WxH] [frame]
 */

#include <climits>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "example_args.hh"
#include "quality/image_metrics.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

using namespace texpim;

int
main(int argc, char **argv)
{
    Workload wl{Game::Doom3, 640, 480};
    unsigned frame = 3;
    if (argc > 1 && !parseGame(argv[1], wl.game))
        TEXPIM_FATAL("unknown game '", argv[1], "'");
    if (argc > 2)
        parseResolution(argv[2], wl);
    if (argc > 3)
        frame = Config::parseUnsigned("frame", argv[3], 0, UINT_MAX);

    Scene scene = buildGameScene(wl, frame);

    SimConfig base_cfg;
    base_cfg.design = Design::Baseline;
    RenderingSimulator base_sim(base_cfg);
    SimResult base = base_sim.renderScene(scene);
    writePpm(*base.image, "quality_baseline.ppm");

    struct Point
    {
        const char *name;
        float threshold;
    };
    const Point points[] = {
        {"A-TFIM-0005pi", kThreshold0005Pi},
        {"A-TFIM-001pi", kThreshold001Pi},
        {"A-TFIM-005pi", kThreshold005Pi},
        {"A-TFIM-01pi", kThreshold01Pi},
        {"A-TFIM-no", kThresholdNoRecalc},
    };

    std::printf("%-16s %8s %8s %10s %12s %10s\n", "config", "PSNR",
                "SSIM", "diff px", "recalcs", "speedup");
    u64 total_px = u64(wl.width) * wl.height;
    for (const Point &p : points) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.atfim.angleThresholdRad = p.threshold;
        RenderingSimulator sim(cfg);
        SimResult r = sim.renderScene(scene);
        double q = psnr(*base.image, *r.image);
        double s = ssim(*base.image, *r.image);
        u64 diff = differingPixels(*base.image, *r.image);
        double speedup = double(base.frame.frameCycles) /
                         double(r.frame.frameCycles);
        std::printf("%-16s %8.1f %8.4f %6.1f%%   %12llu %9.2fx\n", p.name,
                    q, s, 100.0 * double(diff) / double(total_px),
                    (unsigned long long)r.angleRecalcs, speedup);
        std::string out = std::string("quality_") + p.name + ".ppm";
        writePpm(*r.image, out);
    }
    std::printf("wrote quality_baseline.ppm and per-threshold frames\n");
    return 0;
}
