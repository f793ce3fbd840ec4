/**
 * @file
 * The paper's suite figures - Figs. 2, 4, 5 and 10-16 - from one grid:
 * the Table II workloads under the nine design points those figures
 * read, submitted to one ExperimentRunner pool (--jobs N). Each
 * figure's table is then read off the shared results, in figure order.
 * Every spec runs in its own SimContext, so a figure's numbers do not
 * depend on which other points share the grid, and the output is
 * byte-identical whatever the worker count.
 */

#include <span>

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

namespace {

/** The grid's design points, in submission order. */
enum Point : size_t
{
    Base, Iso, BPim, STfim,
    ATfim0005, ATfim001, ATfim005, ATfim01, ATfimNo,
};

struct DesignPoint
{
    const char *name; //!< column label
    Design design;
    bool disableAniso;
    float thresholdRad; //!< A-TFIM camera-angle threshold (§VII-D)
};

/** Indexed by Point. */
constexpr DesignPoint kGrid[] = {
    {"Baseline", Design::Baseline, false, kThreshold001Pi},
    {"Isotropic", Design::Baseline, true, kThreshold001Pi},
    {"B-PIM", Design::BPim, false, kThreshold001Pi},
    {"S-TFIM", Design::STfim, false, kThreshold001Pi},
    {"A-TFIM-0005pi", Design::ATfim, false, kThreshold0005Pi},
    {"A-TFIM-001pi", Design::ATfim, false, kThreshold001Pi},
    {"A-TFIM-005pi", Design::ATfim, false, kThreshold005Pi},
    {"A-TFIM-01pi", Design::ATfim, false, kThreshold01Pi},
    {"A-TFIM-no", Design::ATfim, false, kThresholdNoRecalc},
};
static_assert(std::size(kGrid) == ATfimNo + 1);

/** The four designs of Figs. 10, 11 and 13. */
constexpr Point kDesigns[] = {Base, BPim, STfim, ATfim001};
/** A-TFIM across the camera-angle thresholds of Figs. 14-16. */
constexpr Point kThresholds[] = {ATfim0005, ATfim001, ATfim005, ATfim01,
                                 ATfimNo};

double
filterCycles(const SimResult &r)
{
    return double(r.textureFilterCycles);
}

double
energy(const SimResult &r)
{
    return r.energy.total();
}

/** PSNR of each workload's frame in `rs` against its frame in `ref`. */
std::vector<double>
psnrVs(const Suite &ref, const Suite &rs)
{
    std::vector<double> out;
    for (size_t i = 0; i < rs.size(); ++i)
        out.push_back(psnr(*ref[i].result.image, *rs[i].result.image));
    return out;
}

/** One column per point: Baseline's metric over the point's (a
 *  speedup), or with `speedup` false the point's over Baseline's. */
ResultTable
vsBaseline(const char *title, const std::vector<std::string> &rows,
           const Grid &g, std::span<const Point> points, Metric m,
           bool speedup)
{
    ResultTable table(title, rows);
    for (Point p : points)
        table.addColumn(kGrid[p].name, speedup ? over(g[Base], g[p], m)
                                               : over(g[p], g[Base], m));
    return table;
}

void
fig02(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 2 - memory bandwidth usage breakdown (baseline GPU)",
                "texture fetching ~60% of total memory access on average");
    ResultTable table("off-chip traffic share by class (%)", rows);
    for (TrafficClass c :
         {TrafficClass::Texture, TrafficClass::FrameBuffer,
          TrafficClass::Geometry, TrafficClass::ZTest,
          TrafficClass::ColorBuffer}) {
        table.addColumn(trafficClassName(c),
                        metricOf(g[Base], [&](const SimResult &r) {
                            double t = double(r.offChipTotalBytes);
                            return t > 0 ? 100.0 *
                                               double(r.offChipBytesByClass
                                                          [unsigned(c)]) /
                                               t
                                         : 0.0;
                        }));
    }
    table.addColumn("total_MB", metricOf(g[Base], [](const SimResult &r) {
                        return double(r.offChipTotalBytes) / 1e6;
                    }));
    table.print(std::cout, 1);
}

void
fig04(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 4 - baseline with anisotropic filtering disabled",
                "texture filtering speeds up (avg ~2.1x, up to ~5x); "
                "texture traffic drops 34% on average (up to 73%)");
    ResultTable table("anisotropic filtering disabled vs enabled", rows);
    table.addColumn("texfilter_speedup", over(g[Base], g[Iso], filterCycles));
    table.addColumn("norm_tex_traffic", over(g[Iso], g[Base], texTraffic));
    table.addColumn("render_speedup", over(g[Base], g[Iso], frameCycles));
    table.print(std::cout);
}

void
fig05(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 5 - B-PIM (HMC as drop-in memory) vs baseline",
                "3D rendering +27% on average (up to 30%); texture "
                "filtering up to ~1.7x");
    ResultTable table("B-PIM speedups over baseline", rows);
    table.addColumn("render_speedup", over(g[Base], g[BPim], frameCycles));
    table.addColumn("texfilter_speedup",
                    over(g[Base], g[BPim], filterCycles));
    table.print(std::cout);
}

void
fig10(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader(
        "Fig. 10 - texture filtering speedup under the four designs",
        "A-TFIM 3.97x on average (up to 6.4x) over the baseline");
    vsBaseline("texture filtering speedup (x)", rows, g, kDesigns,
               filterCycles, true)
        .print(std::cout);
}

void
fig11(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 11 - 3D rendering speedup under the four designs",
                "A-TFIM +43% on average (up to 65%); S-TFIM ~ B-PIM in "
                "the paper (ours lands below baseline - see "
                "EXPERIMENTS.md)");
    vsBaseline("3D rendering speedup (x)", rows, g, kDesigns, frameCycles,
               true)
        .print(std::cout);
}

void
fig12(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 12 - off-chip texture memory traffic (normalized)",
                "S-TFIM 2.79x baseline on average; A-TFIM-001pi ~1x; "
                "A-TFIM-005pi 0.72x (down to 0.36x)");
    constexpr Point points[] = {Base, BPim, STfim, ATfim001, ATfim005};
    vsBaseline("normalized texture traffic", rows, g, points, texTraffic,
               false)
        .print(std::cout);
}

void
fig13(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 13 - normalized energy consumption",
                "A-TFIM consumes 22% less than baseline and 8% less "
                "than B-PIM; S-TFIM consumes more than B-PIM");
    vsBaseline("normalized energy", rows, g, kDesigns, energy, false)
        .print(std::cout);
}

void
fig14(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 14 - A-TFIM rendering speedup vs angle threshold",
                "speedup grows as the threshold loosens (~1.35x at "
                "0.005pi to ~1.47x at no-recalculation)");
    vsBaseline("A-TFIM rendering speedup (x)", rows, g, kThresholds,
               frameCycles, true)
        .print(std::cout);
}

void
fig15(const Grid &g, const std::vector<std::string> &rows)
{
    printHeader("Fig. 15 - image quality (PSNR) vs angle threshold",
                "quality falls as the threshold loosens, with a "
                "pronounced drop between 0.01pi and 0.05pi");
    ResultTable table("PSNR vs baseline frame (dB)", rows);
    // The paper notes the anisotropic-disabled ("only Isotropic")
    // configuration scores below even A-TFIM-no-recalculation.
    table.addColumn(kGrid[Iso].name, psnrVs(g[Base], g[Iso]));
    for (Point p : kThresholds)
        table.addColumn(kGrid[p].name, psnrVs(g[Base], g[p]));
    table.print(std::cout, 1);
}

void
fig16(const Grid &g)
{
    printHeader("Fig. 16 - performance-quality trade-off (suite average)",
                "smaller thresholds raise quality and cost speedup; "
                "0.01pi is the paper's chosen operating point");
    std::printf("%-16s %12s %10s %14s\n", "config", "speedup", "PSNR",
                "recalcs/frame");
    for (Point p : kThresholds) {
        const Suite &rs = g[p];
        double recalcs = 0.0;
        for (const WorkloadResult &r : rs)
            recalcs += double(r.result.angleRecalcs);
        std::printf("%-16s %11.2fx %10.1f %14.0f\n", kGrid[p].name,
                    mean(over(g[Base], rs, frameCycles)),
                    mean(psnrVs(g[Base], rs)),
                    recalcs / double(rs.size()));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    std::vector<SimConfig> cfgs;
    for (const DesignPoint &p : kGrid) {
        SimConfig cfg;
        cfg.design = p.design;
        cfg.disableAniso = p.disableAniso;
        cfg.atfim.angleThresholdRad = p.thresholdRad;
        cfgs.push_back(cfg);
    }
    const Grid g = runSuites(cfgs, opt);
    const std::vector<std::string> rows = workloadLabels(opt);

    fig02(g, rows);
    fig04(g, rows);
    fig05(g, rows);
    fig10(g, rows);
    fig11(g, rows);
    fig12(g, rows);
    fig13(g, rows);
    fig14(g, rows);
    fig15(g, rows);
    fig16(g);
    return 0;
}
