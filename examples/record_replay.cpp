/**
 * @file
 * Record/replay: capture a game workload into a binary render trace
 * (the reproduction's stand-in for the paper's captured ATTILA
 * OpenGL/D3D traces), then replay it through the simulator and verify
 * the replayed frame is bit-identical to rendering the live scene.
 *
 * Usage: record_replay [game] [WxH] [trace-path]
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "example_args.hh"
#include "quality/image_metrics.hh"
#include "scene/trace.hh"
#include "sim/simulator.hh"

using namespace texpim;

int
main(int argc, char **argv)
{
    Workload wl{Game::Wolfenstein, 320, 240};
    std::string path = "workload.texpim";
    if (argc > 1 && !parseGame(argv[1], wl.game))
        TEXPIM_FATAL("unknown game '", argv[1], "'");
    if (argc > 2)
        parseResolution(argv[2], wl);
    if (argc > 3)
        path = argv[3];

    // Record.
    Scene live = buildGameScene(wl, 3);
    writeTraceFile(live, path);
    std::printf("recorded %s: %u objects, %u textures -> %s\n",
                live.name.c_str(), unsigned(live.objects.size()),
                live.textures->count(), path.c_str());

    // Replay.
    Scene replayed = readTraceFile(path);
    std::printf("replayed %s: %u triangles\n", replayed.name.c_str(),
                replayed.triangleCount());

    SimConfig cfg;
    cfg.design = Design::Baseline;

    RenderingSimulator sim_live(cfg);
    SimResult a = sim_live.renderScene(live);
    RenderingSimulator sim_replay(cfg);
    SimResult b = sim_replay.renderScene(replayed);

    u64 diff = differingPixels(*a.image, *b.image);
    std::printf("live frame:     %llu cycles, %llu off-chip bytes\n",
                (unsigned long long)a.frame.frameCycles,
                (unsigned long long)a.offChipTotalBytes);
    std::printf("replayed frame: %llu cycles, %llu off-chip bytes\n",
                (unsigned long long)b.frame.frameCycles,
                (unsigned long long)b.offChipTotalBytes);
    std::printf("pixel differences: %llu %s\n", (unsigned long long)diff,
                diff == 0 ? "(bit-identical, as required)"
                          : "(MISMATCH - trace replay is broken!)");
    return diff == 0 ? 0 : 1;
}
