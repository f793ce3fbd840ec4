/**
 * @file
 * Fig. 14: A-TFIM 3D-rendering speedup across the camera-angle
 * thresholds of §VII-D (0.005 pi ... no recalculation).
 */

#include "bench_common.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 14 - A-TFIM rendering speedup vs angle threshold",
                "speedup grows as the threshold loosens (~1.35x at "
                "0.005pi to ~1.47x at no-recalculation)");

    auto frame = [](const SimResult &r) {
        return double(r.frame.frameCycles);
    };

    struct Point
    {
        const char *name;
        float thr;
    };
    const Point points[] = {
        {"A-TFIM-0005pi", kThreshold0005Pi}, {"A-TFIM-001pi", kThreshold001Pi},
        {"A-TFIM-005pi", kThreshold005Pi},   {"A-TFIM-01pi", kThreshold01Pi},
        {"A-TFIM-no", kThresholdNoRecalc},
    };

    // One pool for the baseline plus every threshold point.
    std::vector<SimConfig> cfgs(1);
    cfgs[0].design = Design::Baseline;
    for (const Point &p : points) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.atfim.angleThresholdRad = p.thr;
        cfgs.push_back(cfg);
    }

    auto all = runSuites(cfgs, opt);
    auto base_metric = metricOf(all[0], frame);

    ResultTable table("A-TFIM rendering speedup (x)", workloadLabels(opt));
    for (size_t c = 1; c < cfgs.size(); ++c)
        table.addColumn(points[c - 1].name,
                        ratio(base_metric, metricOf(all[c], frame)));
    table.print(std::cout);
    return 0;
}
