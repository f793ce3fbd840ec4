/**
 * @file
 * Fig. 15: image quality (PSNR of the A-TFIM frame against the
 * baseline frame) across the camera-angle thresholds. The paper's
 * convention reports 99 for identical images, and treats PSNR above
 * ~70 as visually lossless.
 */

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fig. 15 - image quality (PSNR) vs angle threshold",
                "quality falls as the threshold loosens, with a "
                "pronounced drop between 0.01pi and 0.05pi");

    SimConfig base;
    base.design = Design::Baseline;
    auto b = runSuite(base, opt);

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

    ResultTable table("PSNR vs baseline frame (dB)", workloadLabels(opt));

    // The paper notes the anisotropic-disabled ("only Isotropic")
    // configuration scores below even A-TFIM-no-recalculation.
    {
        SimConfig iso = base;
        iso.disableAniso = true;
        auto rs = runSuite(iso, opt);
        std::vector<double> col;
        for (size_t i = 0; i < rs.size(); ++i)
            col.push_back(psnr(*b[i].result.image, *rs[i].result.image));
        table.addColumn("Isotropic", col);
    }

    for (const Point &p : points) {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.atfim.angleThresholdRad = p.thr;
        auto rs = runSuite(cfg, opt);
        std::vector<double> col;
        for (size_t i = 0; i < rs.size(); ++i)
            col.push_back(psnr(*b[i].result.image, *rs[i].result.image));
        table.addColumn(p.name, col);
    }
    table.print(std::cout, 1);
    return 0;
}
