/**
 * @file
 * Fig. 12: texture memory traffic between the host GPU and the memory
 * device (texel fetches plus PIM packages), normalized to the
 * baseline, for B-PIM, S-TFIM and A-TFIM at the 0.01 pi and 0.05 pi
 * camera-angle thresholds.
 *
 * All five (design x workload) suites run on one ExperimentRunner
 * pool (--jobs N / TEXPIM_JOBS).
 */

#include "bench_common.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 12 - off-chip texture memory traffic (normalized)",
                "S-TFIM 2.79x baseline on average; A-TFIM-001pi ~1x; "
                "A-TFIM-005pi 0.72x (down to 0.36x)");

    auto traffic = [](const SimResult &r) {
        return double(r.textureTrafficBytes);
    };

    std::vector<std::string> names{"Baseline", "B-PIM", "S-TFIM"};
    std::vector<SimConfig> cfgs(3);
    cfgs[0].design = Design::Baseline;
    cfgs[1].design = Design::BPim;
    cfgs[2].design = Design::STfim;
    for (float thr : {kThreshold001Pi, kThreshold005Pi}) {
        SimConfig atfim;
        atfim.design = Design::ATfim;
        atfim.atfim.angleThresholdRad = thr;
        cfgs.push_back(atfim);
        names.push_back(thr == kThreshold001Pi ? "A-TFIM-001pi"
                                               : "A-TFIM-005pi");
    }

    auto all = runSuites(cfgs, opt);
    auto base_metric = metricOf(all[0], traffic);

    ResultTable table("normalized texture traffic", workloadLabels(opt));
    for (size_t c = 0; c < cfgs.size(); ++c)
        table.addColumn(names[c],
                        ratio(metricOf(all[c], traffic), base_metric));
    table.print(std::cout);
    return 0;
}
