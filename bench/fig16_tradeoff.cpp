/**
 * @file
 * Fig. 16: the performance-quality trade-off — suite-average A-TFIM
 * rendering speedup and PSNR per camera-angle threshold, the curve
 * used to justify 0.01 pi as the default operating point.
 */

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 16 - performance-quality trade-off (suite average)",
                "smaller thresholds raise quality and cost speedup; "
                "0.01pi is the paper's chosen operating point");

    auto frame = [](const SimResult &r) {
        return double(r.frame.frameCycles);
    };

    SimConfig base;
    base.design = Design::Baseline;
    auto b = runSuite(base, opt);
    auto base_metric = metricOf(b, frame);

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

    std::printf("%-16s %12s %10s %14s\n", "config", "speedup", "PSNR",
                "recalcs/frame");
    for (const Point &p : points) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.atfim.angleThresholdRad = p.thr;
        auto rs = runSuite(cfg, opt);

        std::vector<double> speedups =
            ratio(base_metric, metricOf(rs, frame));
        std::vector<double> quality;
        double recalcs = 0.0;
        for (size_t i = 0; i < rs.size(); ++i) {
            quality.push_back(psnr(*b[i].result.image, *rs[i].result.image));
            recalcs += double(rs[i].result.angleRecalcs);
        }
        std::printf("%-16s %11.2fx %10.1f %14.0f\n", p.name,
                    mean(speedups), mean(quality),
                    recalcs / double(rs.size()));
    }
    return 0;
}
