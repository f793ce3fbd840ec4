/**
 * @file
 * Traffic explorer: dissect where a workload's memory traffic and
 * cycles go under any design point — the Fig. 2-style bandwidth
 * breakdown, cache hit rates, bus utilization and texture-path
 * statistics. This is the tool we used to calibrate the workloads
 * against the paper's reported behaviour.
 *
 * Usage: traffic_explorer [game] [WxH] [design] [frame]
 *   design: baseline | bpim | stfim | atfim   (default baseline)
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "example_args.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

using namespace texpim;

int
main(int argc, char **argv)
{
    Workload wl{Game::Doom3, 640, 480};
    Design design = Design::Baseline;
    unsigned frame = 3;

    if (argc > 1 && !parseGame(argv[1], wl.game))
        TEXPIM_FATAL("unknown game '", argv[1], "'");
    if (argc > 2)
        parseResolution(argv[2], wl);
    if (argc > 3 && !parseDesign(argv[3], design))
        TEXPIM_FATAL("unknown design '", argv[3], "'");
    if (argc > 4)
        frame = Config::parseUnsigned("frame", argv[4], 0, UINT_MAX);

    Scene scene = buildGameScene(wl, frame);
    SimConfig cfg;
    cfg.design = design;
    RenderingSimulator sim(cfg);
    SimResult r = sim.renderScene(scene);

    std::printf("=== %s under %s ===\n", wl.label().c_str(),
                designName(design));
    std::printf("triangles: %u submitted, %llu setup, %llu hier-Z skipped\n",
                scene.triangleCount(),
                (unsigned long long)r.frame.trianglesSetup,
                (unsigned long long)r.frame.hierZTrianglesSkipped);
    std::printf("fragments: %llu covered, %llu shaded, %llu early-Z "
                "killed (overdraw %.2fx)\n",
                (unsigned long long)r.frame.fragmentsCovered,
                (unsigned long long)r.frame.fragmentsShaded,
                (unsigned long long)r.frame.fragmentsEarlyZKilled,
                double(r.frame.fragmentsCovered) /
                    double(wl.width * wl.height));
    std::printf("avg camera angle %.1f deg, avg aniso %.2fx\n",
                r.frame.avgCameraAngleRad * 180.0 / 3.14159,
                r.frame.avgAnisoRatio);

    std::printf("\ncycles: frame %llu (geometry %llu)\n",
                (unsigned long long)r.frame.frameCycles,
                (unsigned long long)r.frame.geometryCycles);
    std::printf("texture: %llu requests, filter-cycle sum %llu "
                "(mean latency %.1f)\n",
                (unsigned long long)r.frame.texRequests,
                (unsigned long long)r.textureFilterCycles,
                r.frame.texRequests
                    ? double(r.textureFilterCycles) /
                          double(r.frame.texRequests)
                    : 0.0);

    std::printf("\noff-chip traffic by class (MB):\n");
    double total = double(r.offChipTotalBytes);
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        double b = double(r.offChipBytesByClass[c]);
        std::printf("  %-12s %9.2f  (%5.1f%%)\n",
                    trafficClassName(TrafficClass(c)), b / 1e6,
                    total > 0 ? 100.0 * b / total : 0.0);
    }
    std::printf("  %-12s %9.2f\n", "TOTAL", total / 1e6);
    std::printf("  texture share incl. packages: %.1f%%\n",
                total > 0 ? 100.0 * double(r.textureTrafficBytes) / total
                          : 0.0);

    double peak = sim.memory().peakOffChipBytesPerCycle();
    std::printf("\nbus: peak %.0f B/cyc, frame-average utilization %.1f%%\n",
                peak,
                100.0 * total / (double(r.frame.frameCycles) * peak));

    std::printf("\nenergy: total %.2f mJ (shader %.2f, texture %.2f, cache "
                "%.2f, memory %.2f, background %.2f, leakage %.2f)\n",
                r.energy.total() * 1e3, r.energy.shaderJ * 1e3,
                r.energy.textureJ * 1e3, r.energy.cacheJ * 1e3,
                r.energy.memoryJ * 1e3, r.energy.backgroundJ * 1e3,
                r.energy.leakageJ * 1e3);

    std::printf("\ntexture-path statistics:\n");
    sim.texturePath().stats().dump(std::cout);
    std::printf("\nrenderer statistics:\n");
    sim.rendererStats().dump(std::cout);
    std::printf("\nmemory-system statistics:\n");
    sim.memory().stats().dump(std::cout);
    return 0;
}
