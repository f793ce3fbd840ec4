/**
 * @file
 * Quickstart: render one frame of a game workload under all four
 * design points (Baseline, B-PIM, S-TFIM, A-TFIM) and print the
 * paper's headline metrics — rendering speedup, texture-filtering
 * speedup, off-chip texture traffic and energy — plus the PSNR of the
 * A-TFIM approximation.
 *
 * Usage: quickstart [game] [WxH]
 *   game: doom3 | fear | hl2 | riddick | wolfenstein  (default doom3)
 *   WxH:  e.g. 640x480 (default 320x240 so it runs in seconds)
 */

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
    Workload wl{Game::Doom3, 320, 240};
    if (argc > 1 && !parseGame(argv[1], wl.game))
        TEXPIM_FATAL("unknown game '", argv[1], "'");
    if (argc > 2)
        parseResolution(argv[2], wl);

    Scene scene = buildGameScene(wl, /*frame=*/3);
    std::printf("workload %s: %u triangles, %u textures, aniso %ux\n",
                wl.label().c_str(), scene.triangleCount(),
                scene.textures->count(), scene.settings.maxAniso);

    const Design designs[] = {Design::Baseline, Design::BPim, Design::STfim,
                              Design::ATfim};

    SimResult base;
    std::printf("\n%-10s %14s %12s %14s %12s %10s\n", "design",
                "frame cycles", "render x", "texfilter x", "tex MB",
                "energy mJ");
    for (Design d : designs) {
        SimConfig cfg;
        cfg.design = d;
        RenderingSimulator sim(cfg);
        SimResult r = sim.renderScene(scene);
        if (d == Design::Baseline)
            base = r;

        double render_x = double(base.frame.frameCycles) /
                          double(r.frame.frameCycles);
        double tex_x = double(base.textureFilterCycles) /
                       double(r.textureFilterCycles);
        std::printf("%-10s %14llu %12.2f %14.2f %12.1f %10.2f\n",
                    designName(d),
                    (unsigned long long)r.frame.frameCycles, render_x, tex_x,
                    double(r.textureTrafficBytes) / 1e6,
                    r.energy.total() * 1e3);

        if (d == Design::ATfim) {
            double q = psnr(*base.image, *r.image);
            std::printf("\nA-TFIM image quality vs baseline: PSNR %.1f dB "
                        "(>70 is visually lossless), %llu recalcs\n",
                        q, (unsigned long long)r.angleRecalcs);
            writePpm(*r.image, "quickstart_atfim.ppm");
            writePpm(*base.image, "quickstart_baseline.ppm");
            std::printf("wrote quickstart_baseline.ppm / "
                        "quickstart_atfim.ppm\n");
        }
    }
    return 0;
}
