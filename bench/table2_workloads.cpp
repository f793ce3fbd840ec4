/**
 * @file
 * Table II: the gaming benchmarks — five titles across the paper's
 * resolutions, with the workload statistics our procedural profiles
 * produce (triangles, textures, default anisotropy).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_common.hh"

using namespace texpim;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);

    std::printf("TABLE II. GAMING BENCHMARKS (procedural stand-ins)\n\n");
    std::printf("%-22s %-9s %-16s %6s %9s %7s %9s\n", "name", "library",
                "3D engine", "tris", "textures", "aniso", "tex MB");
    // Textures depend only on game and seed: each game's later
    // workloads adopt the store of its first.
    std::map<Game, std::shared_ptr<TextureStore>> stores;
    for (const Workload &wl : suiteWorkloads(opt)) {
        Scene s = buildGameScene(wl, opt.frame, opt.seed, stores[wl.game]);
        stores[wl.game] = s.textures;
        std::printf("%-22s %-9s %-16s %6u %9u %6ux %9.1f\n",
                    wl.label().c_str(), gameLibrary(wl.game),
                    gameEngine(wl.game), s.triangleCount(),
                    s.textures->count(), s.settings.maxAniso,
                    double(s.textures->totalBytes()) / 1e6);
    }
    return 0;
}
