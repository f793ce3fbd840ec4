/**
 * @file
 * Texture-compression ablation: the paper positions its PIM designs as
 * orthogonal to texture compression (§VIII). This bench quantifies
 * that claim: BC1 storage cuts texture traffic for *every* design, and
 * A-TFIM's advantage over the baseline survives compression.
 */

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Ablation - BC1 texture compression x PIM designs",
                "compression and in-memory anisotropic filtering are "
                "orthogonal: both cut texture traffic, and they compose");

    auto frame = [](const SimResult &r) {
        return double(r.frame.frameCycles);
    };
    auto traffic = [](const SimResult &r) {
        return double(r.textureTrafficBytes);
    };

    ResultTable speed("rendering speedup vs uncompressed baseline (x)",
                      workloadLabels(opt));
    ResultTable traf("texture traffic vs uncompressed baseline",
                     workloadLabels(opt));

    std::vector<double> base_frame, base_traffic;
    std::vector<double> psnr_bc1;

    // Reference: uncompressed baseline.
    std::vector<WorkloadResult> base;
    {
        SimConfig cfg;
        cfg.design = Design::Baseline;
        base = runSuites({cfg}, opt)[0];
        base_frame = metricOf(base, frame);
        base_traffic = metricOf(base, traffic);
    }

    struct Cell
    {
        const char *name;
        Design design;
        bool compress;
    };
    // The full {off, BC1} x design grid (the uncompressed baseline is
    // the reference column above): compression must compose with every
    // design, not just the endpoints.
    const Cell cells[] = {
        {"base+BC1", Design::Baseline, true},
        {"B-PIM", Design::BPim, false},
        {"B-PIM+BC1", Design::BPim, true},
        {"S-TFIM", Design::STfim, false},
        {"S-TFIM+BC1", Design::STfim, true},
        {"A-TFIM", Design::ATfim, false},
        {"A-TFIM+BC1", Design::ATfim, true},
    };

    for (const Cell &c : cells) {
        SimConfig cfg;
        cfg.design = c.design;
        std::vector<double> fr, tr;
        for (const Workload &wl : suiteWorkloads(opt)) {
            Scene scene = buildGameScene(wl, opt.frame, opt.seed);
            scene.settings.maxAniso =
                defaultMaxAniso(wl.width * opt.resolutionDivisor);
            if (c.compress)
                scene = withTextureFormat(scene, TexelFormat::Bc1);
            RenderingSimulator sim(cfg);
            SimResult r = sim.renderScene(scene);
            fr.push_back(double(r.frame.frameCycles));
            tr.push_back(double(r.textureTrafficBytes));
        }
        speed.addColumn(c.name, ratio(base_frame, fr));
        traf.addColumn(c.name, ratio(tr, base_traffic));
    }

    speed.print(std::cout);
    traf.print(std::cout);

    // BC1's image cost against the uncompressed baseline frame, one
    // representative workload.
    {
        Workload wl = suiteWorkloads(opt)[1]; // doom3 at mid resolution
        Scene scene = buildGameScene(wl, opt.frame, opt.seed);
        Scene bc1 = withTextureFormat(scene, TexelFormat::Bc1);
        SimConfig cfg;
        cfg.design = Design::Baseline;
        RenderingSimulator a(cfg), b(cfg);
        SimResult ra = a.renderScene(scene);
        SimResult rb = b.renderScene(bc1);
        std::printf("BC1 image cost on %s: PSNR %.1f dB vs uncompressed\n",
                    wl.label().c_str(), psnr(*ra.image, *rb.image));
    }
    return 0;
}
