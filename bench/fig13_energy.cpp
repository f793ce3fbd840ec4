/**
 * @file
 * Fig. 13: total GPU + memory energy per frame, normalized to the
 * baseline, under the four designs.
 */

#include "bench_common.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 13 - normalized energy consumption",
                "A-TFIM consumes 22% less than baseline and 8% less "
                "than B-PIM; S-TFIM consumes more than B-PIM");

    auto energy = [](const SimResult &r) { return r.energy.total(); };

    SimConfig base;
    base.design = Design::Baseline;
    auto b = runSuite(base, opt);
    auto base_metric = metricOf(b, energy);

    ResultTable table("normalized energy", workloadLabels(opt));
    table.addColumn("Baseline", ratio(base_metric, base_metric));
    for (Design d : {Design::BPim, Design::STfim, Design::ATfim}) {
        SimConfig cfg;
        cfg.design = d;
        cfg.atfim.angleThresholdRad = kThreshold001Pi;
        auto r = runSuite(cfg, opt);
        std::string name = designName(d);
        if (d == Design::ATfim)
            name += "-001pi";
        table.addColumn(name, ratio(metricOf(r, energy), base_metric));
    }
    table.print(std::cout);
    return 0;
}
