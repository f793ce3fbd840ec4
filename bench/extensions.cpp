/**
 * @file
 * The extension studies of EXPERIMENTS.md (ours, beyond the paper)
 * from one run, in this order:
 *   - the A-TFIM unit ablation: Child Texel Consolidation off,
 *     Offloading Unit package compaction off, and S-TFIM with
 *     quad-batched packages (the packaging fix that does NOT rescue
 *     S-TFIM, showing the cache loss is the deeper issue);
 *   - BC1 texture compression x the four designs (§VIII: compression
 *     and in-memory filtering are orthogonal and compose);
 *   - box-anisotropic and A-TFIM quality against a Gaussian EWA
 *     reference (the weighting the Eq. (3) reordering gives up);
 *   - warm 8-frame camera paths (§V-C's inter-frame case): A-TFIM's
 *     recalculations, traffic and quality per frame on each title,
 *     then on Doom3 the frame-to-frame texel-block reuse per design
 *     and the horizon vs pinned round-robin tile schedules.
 *
 * The seven uncompressed design points the studies read run as one
 * suite grid on the ExperimentRunner pool (--jobs N).
 * The BC1 and EWA frames, which no suite spec can describe, and the
 * camera paths render one at a time against it, each distinct path
 * once; the BC1 and EWA frames share one texture store per game.
 * Those frames record their tiles on a pool of --jobs threads
 * (gpu.render_threads), which leaves every image, cycle count and
 * statistic unchanged, so the output is byte-identical whatever the
 * worker count.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

namespace {

/** The grid's design points, in submission order. The four designs
 *  come first, so a Point below ATfim + 1 also indexes them. */
enum Point : size_t
{
    Base, BPim, STfim, ATfim,
    NoConsolidation, NoCompaction, STfimQuadPkg,
};

struct DesignPoint
{
    const char *name; //!< column label
    Design design;
};

/** Indexed by Point. */
constexpr DesignPoint kGrid[] = {
    {"Baseline", Design::Baseline},
    {"B-PIM", Design::BPim},
    {"S-TFIM", Design::STfim},
    {"A-TFIM", Design::ATfim},
    {"no-consolidation", Design::ATfim},
    {"no-compaction", Design::ATfim},
    {"S-TFIM-quadpkg", Design::STfim},
};
static_assert(std::size(kGrid) == STfimQuadPkg + 1);
// The A-TFIM point runs at the paper's 0.01pi operating point.
static_assert(AtfimParams{}.angleThresholdRad == kThreshold001Pi);

std::vector<SimConfig>
gridConfigs()
{
    std::vector<SimConfig> cfgs(std::size(kGrid));
    for (size_t p = 0; p < cfgs.size(); ++p)
        cfgs[p].design = kGrid[p].design;
    cfgs[NoConsolidation].atfim.consolidateChildren = false;
    cfgs[NoCompaction].atfim.compactPackages = false;
    cfgs[STfimQuadPkg].mtu.requestsPerPackage = 4; // quad batching
    return cfgs;
}

/** `cfg` recording tiles on --jobs threads, capped at the host's. */
SimConfig
withRecorders(SimConfig cfg, const SuiteOptions &opt)
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    cfg.gpu.renderThreads = opt.jobs == 0 ? hw : std::min(opt.jobs, hw);
    return cfg;
}

/** Each game's texture store. Textures depend only on game and seed,
 *  so a game's first scene builds its store and later ones adopt it. */
using Stores = std::map<Game, std::shared_ptr<TextureStore>>;

/** The scene a suite spec renders for `wl`: the paper's anisotropy
 *  level for the workload's full resolution. */
Scene
suiteScene(const Workload &wl, const SuiteOptions &opt, Stores &stores)
{
    Scene scene = buildGameScene(wl, opt.frame, opt.seed, stores[wl.game]);
    stores[wl.game] = scene.textures;
    scene.settings.maxAniso =
        defaultMaxAniso(wl.width * opt.resolutionDivisor);
    return scene;
}

SimResult
renderOne(const SimConfig &cfg, const Scene &scene, const SuiteOptions &opt)
{
    RenderingSimulator sim(withRecorders(cfg, opt));
    return sim.renderScene(scene);
}

void
unitAblation(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Ablation - A-TFIM and S-TFIM design choices",
                "consolidation and package compaction each buy "
                "traffic/latency; quad packaging alone does not fix "
                "S-TFIM");
    constexpr Point points[] = {ATfim, NoConsolidation, NoCompaction, STfim,
                                STfimQuadPkg};
    ResultTable speed("rendering speedup vs baseline (x)", rows);
    ResultTable traf("normalized texture traffic", rows);
    for (Point p : points) {
        speed.addColumn(kGrid[p].name, over(g[Base], g[p], frameCycles));
        traf.addColumn(kGrid[p].name, over(g[p], g[Base], texTraffic));
    }
    speed.print(std::cout);
    traf.print(std::cout);
}

void
compression(const Grid &g, const std::vector<SimConfig> &cfgs,
            const std::vector<std::string> &rows, const SuiteOptions &opt,
            Stores &stores)
{
    printHeader("Ablation - BC1 texture compression x PIM designs",
                "compression and in-memory anisotropic filtering are "
                "orthogonal: both cut texture traffic, and they compose");

    // bc1[p]: design point p (one of the four designs) on BC1 storage.
    Grid bc1(ATfim + 1);
    for (const Workload &wl : suiteWorkloads(opt)) {
        const Scene scene = withTextureFormat(suiteScene(wl, opt, stores),
                                              TexelFormat::Bc1);
        for (size_t p = 0; p < bc1.size(); ++p)
            bc1[p].push_back({wl, renderOne(cfgs[p], scene, opt)});
    }

    struct Cell
    {
        const char *name;
        Point point;
        bool bc1;
    };
    // The full {off, BC1} x design grid (the uncompressed baseline is
    // the reference): compression must compose with every design, not
    // just the endpoints.
    constexpr Cell cells[] = {
        {"base+BC1", Base, true},     {"B-PIM", BPim, false},
        {"B-PIM+BC1", BPim, true},    {"S-TFIM", STfim, false},
        {"S-TFIM+BC1", STfim, true},  {"A-TFIM", ATfim, false},
        {"A-TFIM+BC1", ATfim, true},
    };
    ResultTable speed("rendering speedup vs uncompressed baseline (x)", rows);
    ResultTable traf("texture traffic vs uncompressed baseline", rows);
    for (const Cell &c : cells) {
        const Suite &s = c.bc1 ? bc1[c.point] : g[c.point];
        speed.addColumn(c.name, over(g[Base], s, frameCycles));
        traf.addColumn(c.name, over(s, g[Base], texTraffic));
    }
    speed.print(std::cout);
    traf.print(std::cout);

    // BC1's image cost against the uncompressed baseline frame, one
    // representative workload (doom3 at mid resolution).
    std::printf("BC1 image cost on %s: PSNR %.1f dB vs uncompressed\n\n",
                rows[1].c_str(),
                psnr(*g[Base][1].result.image, *bc1[Base][1].result.image));
}

void
ewaQuality(const Grid &g, const std::vector<SimConfig> &cfgs,
           const SuiteOptions &opt, Stores &stores)
{
    printHeader("Ablation - box-anisotropic vs EWA reference",
                "the reorderable equal-weight filter tracks the EWA "
                "reference closely; A-TFIM adds only the angle-reuse "
                "error on top");
    std::printf("%-22s %14s %14s\n", "workload", "box vs EWA",
                "A-TFIM vs EWA");
    std::vector<double> box_q, atfim_q;
    for (size_t w = 0; w < g[Base].size(); ++w) {
        const Workload &wl = g[Base][w].workload;
        Scene scene = suiteScene(wl, opt, stores);
        scene.settings.filterMode = FilterMode::TrilinearEwa;
        SimResult ewa = renderOne(cfgs[Base], scene, opt);
        box_q.push_back(psnr(*ewa.image, *g[Base][w].result.image));
        atfim_q.push_back(psnr(*ewa.image, *g[ATfim][w].result.image));
        std::printf("%-22s %12.1f %14.1f\n", wl.label().c_str(),
                    box_q.back(), atfim_q.back());
    }
    std::printf("%-22s %12.1f %14.1f\n\n", "average", mean(box_q),
                mean(atfim_q));
}

constexpr unsigned kPathFrames = 8;
using Path = std::vector<SimResult>;

Path
renderPath(const SimConfig &cfg, const Workload &wl, const SuiteOptions &opt)
{
    RenderingSimulator sim(withRecorders(cfg, opt));
    return sim.renderSequence(wl, kPathFrames, opt.frame, opt.seed);
}

void
flyThrough(const Workload &wl, const Path &base, const Path &atfim)
{
    std::printf("%s (A-TFIM-001pi, warm):\n", wl.label().c_str());
    std::printf("  %-7s %10s %12s %10s %8s\n", "frame", "speedup",
                "recalcs", "tex MB", "PSNR");
    for (unsigned f = 0; f < kPathFrames; ++f) {
        double sp = double(base[f].frame.frameCycles) /
                    double(atfim[f].frame.frameCycles);
        std::printf("  %-7u %9.2fx %12llu %10.2f %8.1f\n", f, sp,
                    (unsigned long long)atfim[f].angleRecalcs,
                    double(atfim[f].textureTrafficBytes) / 1e6,
                    psnr(*base[f].image, *atfim[f].image));
    }
    std::printf("\n");
}

void
reuseRow(Design d, const Path &frames)
{
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
                double(uniq) / kPathFrames,
                uniq_tail ? 100.0 * double(reused) / double(uniq_tail) : 0.0,
                (unsigned long long)hits);
}

double
totalCycles(const Path &frames)
{
    double total = 0.0;
    for (const SimResult &f : frames)
        total += double(f.frame.frameCycles);
    return total;
}

void
cameraPaths(const std::vector<SimConfig> &cfgs, const SuiteOptions &opt)
{
    printHeader("Fly-through - A-TFIM across consecutive frames",
                "SV-C: same parent texel address, different camera "
                "angle across frames drives recalculation");
    // A representative mid-size workload per game, Doom3 first: its
    // Baseline and A-TFIM paths also feed the reuse study below.
    const Workload wls[] = {
        {Game::Doom3, 640, 480},   {Game::Fear, 640, 480},
        {Game::HalfLife2, 640, 480}, {Game::Riddick, 640, 480},
        {Game::Wolfenstein, 640, 480},
    };
    Path doom_base, doom_atfim;
    for (const Workload &wl : wls) {
        Path base = renderPath(cfgs[Base], wl, opt);
        Path atfim = renderPath(cfgs[ATfim], wl, opt);
        flyThrough(wl, base, atfim);
        if (wl.game == Game::Doom3) {
            doom_base = std::move(base);
            doom_atfim = std::move(atfim);
        }
    }

    printHeader("Sequence - inter-frame reuse and tile schedules",
                "consecutive frames share most of their texel working "
                "set");
    const Workload &wl = wls[0];
    std::printf("%s, %u frames, warm:\n", wl.label().c_str(), kPathFrames);
    std::printf("  %-10s %14s %12s %14s\n", "design", "uniq blocks/f",
                "reused %", "tag hits");
    reuseRow(Design::Baseline, doom_base);
    reuseRow(Design::BPim, renderPath(cfgs[BPim], wl, opt));
    reuseRow(Design::STfim, renderPath(cfgs[STfim], wl, opt));
    reuseRow(Design::ATfim, doom_atfim);

    std::printf("\n  baseline per frame:\n");
    std::printf("  %-7s %12s %12s %10s\n", "frame", "uniq blocks",
                "reused", "tag hits");
    for (unsigned f = 0; f < kPathFrames; ++f)
        std::printf("  %-7u %12llu %12llu %10llu\n", f,
                    (unsigned long long)doom_base[f].seqUniqueBlocks,
                    (unsigned long long)doom_base[f].seqBlocksReusedPrev,
                    (unsigned long long)doom_base[f].interFrameTagHits);

    // The timing-fed horizon schedule is the default the rest of the
    // repo reports; rr pins the functional order (see GpuParams).
    SimConfig rr = cfgs[Base];
    rr.gpu.schedule = GpuParams::Schedule::RoundRobin;
    std::printf("\n  baseline tile-issue schedule, total cycles over %u "
                "frames:\n",
                kPathFrames);
    std::printf("  %-10s %14.0f\n", "horizon", totalCycles(doom_base));
    std::printf("  %-10s %14.0f\n", "rr",
                totalCycles(renderPath(rr, wl, opt)));
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    const std::vector<SimConfig> cfgs = gridConfigs();
    const Grid g = runSuites(cfgs, opt);
    const std::vector<std::string> rows = workloadLabels(opt);

    unitAblation(g, rows);
    {
        // Freed before the camera paths, which build their own.
        Stores stores;
        compression(g, cfgs, rows, opt, stores);
        ewaQuality(g, cfgs, opt, stores);
    }
    cameraPaths(cfgs, opt);
    return 0;
}
