/**
 * @file
 * Design-space exploration beyond the paper's configurations: sweep
 * HMC external bandwidth, texture-cache capacity, HMC cube count and
 * anisotropy level, and report how each design point's A-TFIM
 * advantage moves — the kind of sensitivity study a follow-on paper
 * would run. It drives the library API directly because these are
 * SimConfig fields, not texpim config keys.
 *
 * Usage: design_space [game] [WxH]
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "scene/game_profiles.hh"
#include "sim/simulator.hh"

using namespace texpim;

namespace {

/** `WxH` into `wl`; each side in [1, 65536] (FragRecord stores u16
 *  pixel coordinates), range-checked like the texpim CLI's width= and
 *  height= keys, so a bad value is a clean fatal, never a panic. */
void
parseResolution(const std::string &arg, Workload &wl)
{
    size_t x = arg.find('x');
    if (x == std::string::npos || x != arg.rfind('x'))
        TEXPIM_FATAL("bad resolution '", arg, "' (expected WxH)");
    wl.width = Config::parseUnsigned("width", arg.substr(0, x), 1, 65536);
    wl.height = Config::parseUnsigned("height", arg.substr(x + 1), 1, 65536);
}

double
renderSpeedup(const Scene &scene, const SimConfig &base_cfg,
              const SimConfig &cfg)
{
    RenderingSimulator base(base_cfg);
    RenderingSimulator sim(cfg);
    double b = double(base.renderScene(scene).frame.frameCycles);
    double d = double(sim.renderScene(scene).frame.frameCycles);
    return b / d;
}

} // namespace

int
main(int argc, char **argv)
{
    Workload wl{Game::Doom3, 640, 480};
    if (argc > 1 && !parseGame(argv[1], wl.game))
        TEXPIM_FATAL("unknown game '", argv[1], "'");
    if (argc > 2)
        parseResolution(argv[2], wl);

    Scene scene = buildGameScene(wl, 3);
    SimConfig base;
    base.design = Design::Baseline;

    std::printf("=== design space around %s ===\n\n", wl.label().c_str());

    std::printf("HMC external bandwidth sweep (A-TFIM rendering "
                "speedup):\n");
    for (double gbs : {160.0, 320.0, 640.0}) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.hmc.externalBandwidthGBs = gbs;
        std::printf("  %4.0f GB/s: %5.2fx\n", gbs,
                    renderSpeedup(scene, base, cfg));
    }

    std::printf("\ntexture L2 capacity sweep (baseline render cycles, "
                "relative to 128 KB):\n");
    SimConfig ref = base;
    RenderingSimulator ref_sim(ref);
    double ref_cycles = double(ref_sim.renderScene(scene).frame.frameCycles);
    for (u64 kb : {32, 128, 512}) {
        SimConfig cfg = base;
        cfg.gpu.texL2.sizeBytes = kb * 1024;
        RenderingSimulator sim(cfg);
        double c = double(sim.renderScene(scene).frame.frameCycles);
        std::printf("  %4llu KB: %.2fx cycles\n", (unsigned long long)kb,
                    c / ref_cycles);
    }

    std::printf("\nHMC cube-count sweep (A-TFIM rendering speedup, "
                "SV-E):\n");
    for (unsigned cubes : {1u, 2u, 4u}) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.hmc.cubes = cubes;
        std::printf("  %u cube%s: %5.2fx\n", cubes, cubes > 1 ? "s" : " ",
                    renderSpeedup(scene, base, cfg));
    }

    std::printf("\nmax anisotropy sweep (A-TFIM texture-filtering "
                "speedup):\n");
    for (unsigned aniso : {2u, 4u, 8u, 16u}) {
        Scene s = scene;
        s.settings.maxAniso = aniso;
        SimConfig cfg;
        cfg.design = Design::ATfim;
        RenderingSimulator b(base), a(cfg);
        double bt = double(b.renderScene(s).textureFilterCycles);
        double at = double(a.renderScene(s).textureFilterCycles);
        std::printf("  %2ux: %5.2fx\n", aniso, bt / at);
    }
    return 0;
}
