/**
 * @file
 * The profiler + traffic-attribution contracts, end to end:
 *
 *  - accounting identity: every off-chip byte the attribution charges
 *    to (class, texture, mip, lane) reproduces the memory model's
 *    off-chip traffic meters exactly, per class, for all four designs;
 *  - determinism: the zone-tree and attribution JSON exports are
 *    byte-identical across gpu.render_threads (serial 1, pooled 4)
 *    and untouched by ExperimentRunner worker counts;
 *  - zero overhead off: with the profiler disabled a render charges no
 *    zone and installs no traffic sink, and enabling it changes
 *    neither the cycle count nor the image.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/prof/profiler.hh"
#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "quality/image_metrics.hh"
#include "scene/game_profiles.hh"
#include "sim/attribution/attribution.hh"
#include "sim/runner/experiment_runner.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

Scene
testScene(unsigned width, unsigned height)
{
    Workload wl{Game::Doom3, width, height};
    Scene scene = buildGameScene(wl, 3, 0x7e01d);
    scene.settings.maxAniso = defaultMaxAniso(width);
    return scene;
}

TEST(TrafficAttributionIdentity, OffChipBytesReproduceMetersExactly)
{
    Scene scene = testScene(320, 240);
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SCOPED_TRACE(designName(d));
        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = d;
        RenderingSimulator sim(cfg);
        Profiler::instance().enable();
        SimResult r = sim.renderScene(scene);
        Profiler::instance().disable();

        const TrafficAttribution *a = sim.attribution();
        ASSERT_NE(a, nullptr);
        u64 total = 0;
        for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
            EXPECT_EQ(
                a->bytesByClass(TrafficChannel::OffChip, TrafficClass(c)),
                r.offChipBytesByClass[c])
                << "traffic class " << c;
            total += r.offChipBytesByClass[c];
        }
        EXPECT_EQ(a->totalBytes(TrafficChannel::OffChip),
                  r.offChipTotalBytes);
        EXPECT_EQ(total, r.offChipTotalBytes);
    }
}

/** Render under a fresh context and return the deterministic profile
 *  and attribution exports. */
std::pair<std::string, std::string>
profAndAttribJson(Design d, unsigned render_threads, const Scene &scene)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    SimConfig cfg;
    cfg.design = d;
    cfg.gpu.schedule = GpuParams::Schedule::RoundRobin;
    cfg.gpu.renderThreads = render_threads;
    RenderingSimulator sim(cfg);
    Profiler::instance().enable();
    sim.renderScene(scene);
    Profiler::instance().disable();

    JsonWriter prof;
    Profiler::instance().writeJson(prof);
    JsonWriter attrib;
    sim.attribution()->writeJson(attrib);
    return {prof.str(), attrib.str()};
}

TEST(ProfilerDeterminism, ExportsByteIdenticalAcrossRenderThreads)
{
    Scene scene = testScene(160, 120);
    for (Design d : {Design::Baseline, Design::STfim}) {
        SCOPED_TRACE(designName(d));
        auto serial = profAndAttribJson(d, 1, scene);
        auto pooled = profAndAttribJson(d, 4, scene);
        // Two-phase with a 4-worker pool reproduces the serial
        // pipeline byte for byte (rules D1-D4: workers never charge).
        EXPECT_EQ(serial.first, pooled.first);
        EXPECT_EQ(serial.second, pooled.second);
    }
}

/** Enable the caller's profiler, charge one marker row, run a sweep
 *  with `jobs` workers, and export the caller's zone tree. */
std::string
profJsonAfterSweep(unsigned jobs)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    Profiler::instance().enable();
    TEXPIM_PROF_CYCLES(prof::kZoneFrame, 7);

    std::vector<ExperimentSpec> specs;
    for (Design d : {Design::Baseline, Design::ATfim}) {
        ExperimentSpec spec;
        spec.config.design = d;
        spec.workload = Workload{Game::Doom3, 96, 64};
        spec.frame = 3;
        specs.push_back(spec);
    }
    RunnerOptions opt;
    opt.jobs = jobs;
    ExperimentRunner(opt).run(specs);

    Profiler::instance().disable();
    JsonWriter w;
    Profiler::instance().writeJson(w);
    return w.str();
}

TEST(ProfilerDeterminism, RunnerJobsNeverChargeTheCallersProfiler)
{
    std::string serial = profJsonAfterSweep(1);
    std::string parallel = profJsonAfterSweep(4);
    EXPECT_EQ(serial, parallel);

    // Worker contexts own their (disabled) profilers, so the caller's
    // tree still holds exactly the marker charge and nothing else.
    json::Value doc = json::parse(serial);
    ASSERT_FALSE(doc.array.empty());
    EXPECT_EQ(doc.array[0].at("zone").string, "frame");
    EXPECT_DOUBLE_EQ(doc.array[0].at("cycles").number, 7.0);
    for (size_t i = 1; i < doc.array.size(); ++i)
        EXPECT_DOUBLE_EQ(doc.array[i].at("count").number, 0.0)
            << doc.array[i].at("zone").string;
}

TEST(ProfilerOffContract, DisabledRenderChargesNothingAndChangesNothing)
{
    Scene scene = testScene(160, 120);
    u64 cycles_off = 0, hash_off = 0;
    {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = Design::ATfim;
        RenderingSimulator sim(cfg);
        ASSERT_FALSE(Profiler::active());
        SimResult r = sim.renderScene(scene);
        cycles_off = r.frame.frameCycles;
        hash_off = imageHash(*r.image);
        // No sink, no zone ever touched: the off path is macro-dead.
        EXPECT_EQ(sim.attribution(), nullptr);
        for (unsigned z = 1; z < prof::kZoneCount; ++z) {
            const Profiler::ZoneRow &row =
                Profiler::instance().row(prof::ZoneId(z));
            EXPECT_EQ(row.count, 0u) << prof::kZones[z].name;
            EXPECT_EQ(row.cycles, 0u) << prof::kZones[z].name;
        }
    }
    {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        SimConfig cfg;
        cfg.design = Design::ATfim;
        RenderingSimulator sim(cfg);
        Profiler::instance().enable();
        SimResult r = sim.renderScene(scene);
        Profiler::instance().disable();
        // Observation never perturbs the simulation.
        EXPECT_EQ(r.frame.frameCycles, cycles_off);
        EXPECT_EQ(imageHash(*r.image), hash_off);
        EXPECT_GT(Profiler::instance().row(prof::kZoneFrame).cycles, 0u);
        EXPECT_NE(sim.attribution(), nullptr);
    }
}

} // namespace
} // namespace texpim
