/**
 * @file
 * Fig. 11: normalized overall 3D-rendering speedup of the four
 * designs.
 *
 * The whole (design x workload) grid is submitted to one
 * ExperimentRunner pool (--jobs N / TEXPIM_JOBS), so the metrics JSON
 * is byte-identical whatever the worker count.
 */

#include "bench_common.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 11 - 3D rendering speedup under the four designs",
                "A-TFIM +43% on average (up to 65%); S-TFIM ~ B-PIM in "
                "the paper (ours lands below baseline - see "
                "EXPERIMENTS.md)");

    auto frame = [](const SimResult &r) {
        return double(r.frame.frameCycles);
    };

    std::vector<std::string> names{"Baseline"};
    std::vector<SimConfig> cfgs(1);
    cfgs[0].design = Design::Baseline;
    for (Design d : {Design::BPim, Design::STfim, Design::ATfim}) {
        SimConfig cfg;
        cfg.design = d;
        cfg.atfim.angleThresholdRad = kThreshold001Pi;
        cfgs.push_back(cfg);
        std::string name = designName(d);
        if (d == Design::ATfim)
            name += "-001pi";
        names.push_back(name);
    }

    auto all = runSuites(cfgs, opt);
    auto base_metric = metricOf(all[0], frame);

    ResultTable table("3D rendering speedup (x)", workloadLabels(opt));
    std::vector<MetricSeries> series;
    table.addColumn("Baseline", ratio(base_metric, base_metric));
    series.push_back({"Baseline", ratio(base_metric, base_metric)});
    for (size_t c = 1; c < cfgs.size(); ++c) {
        auto speedup = ratio(base_metric, metricOf(all[c], frame));
        table.addColumn(names[c], speedup);
        series.push_back({names[c], speedup});
        // Fault/robustness accounting rides along for faulted sweeps
        // (all-zero series under the default fault-free config).
        series.push_back({names[c] + " hmc.link_retries",
                          metricOf(all[c], [](const SimResult &sr) {
                              return double(sr.linkRetries);
                          })});
        series.push_back({names[c] + " pim.fallbacks",
                          metricOf(all[c], [](const SimResult &sr) {
                              return double(sr.pimFallbacks);
                          })});
    }
    table.print(std::cout);
    emitMetricsJson("fig11_rendering_speedup", workloadLabels(opt), series);
    return 0;
}
