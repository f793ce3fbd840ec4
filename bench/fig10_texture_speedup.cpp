/**
 * @file
 * Fig. 10: normalized texture-filtering speedup of the four designs
 * (Baseline, B-PIM, S-TFIM, A-TFIM at the default 0.01 pi camera-angle
 * threshold).
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
    printHeader(
        "Fig. 10 - texture filtering speedup under the four designs",
        "A-TFIM 3.97x on average (up to 6.4x) over the baseline");

    auto filt = [](const SimResult &r) {
        return double(r.textureFilterCycles);
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
    auto base_metric = metricOf(all[0], filt);

    ResultTable table("texture filtering speedup (x)", workloadLabels(opt));
    std::vector<MetricSeries> series;
    table.addColumn("Baseline", ratio(base_metric, base_metric));
    series.push_back({"Baseline", ratio(base_metric, base_metric)});
    for (size_t c = 1; c < cfgs.size(); ++c) {
        auto speedup = ratio(base_metric, metricOf(all[c], filt));
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
    emitMetricsJson("fig10_texture_speedup", workloadLabels(opt), series);
    return 0;
}
