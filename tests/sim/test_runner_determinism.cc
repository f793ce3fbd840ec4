/**
 * @file
 * The ExperimentRunner determinism contract: for a fixed spec vector,
 * per-spec cycles, images and stat snapshots are bit-identical
 * whatever the worker count — jobs=4 must reproduce jobs=1 exactly,
 * and the submission-order reductions (merged stats, serialized JSON)
 * must be byte-identical. Also pins down the
 * SimContext isolation the runner is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "sim/runner/experiment_runner.hh"

namespace texpim {
namespace {

/** The fig10-style grid of the acceptance test: four designs over two
 *  small workloads = 8 independent specs. */
std::vector<ExperimentSpec>
eightSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        for (Game g : {Game::Riddick, Game::Doom3}) {
            ExperimentSpec spec;
            spec.config.design = d;
            spec.workload = Workload{g, 96, 64};
            spec.frame = 3;
            specs.push_back(spec);
        }
    }
    return specs;
}

std::vector<ExperimentResult>
runWith(unsigned jobs, const std::vector<ExperimentSpec> &specs)
{
    RunnerOptions opt;
    opt.jobs = jobs;
    return ExperimentRunner(opt).run(specs);
}

TEST(RunnerDeterminism, FourWorkersReproduceSerialBitExactly)
{
    std::vector<ExperimentSpec> specs = eightSpecs();
    std::vector<ExperimentResult> serial = runWith(1, specs);
    std::vector<ExperimentResult> parallel = runWith(4, specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(serial[i].name);
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].result.frame.frameCycles,
                  parallel[i].result.frame.frameCycles);
        EXPECT_EQ(serial[i].result.textureFilterCycles,
                  parallel[i].result.textureFilterCycles);
        EXPECT_EQ(serial[i].result.offChipTotalBytes,
                  parallel[i].result.offChipTotalBytes);
        EXPECT_EQ(serial[i].imageFnv1a, parallel[i].imageFnv1a);
        // The full per-spec stat snapshot, every key and value.
        EXPECT_EQ(serial[i].stats, parallel[i].stats);
    }

    // Submission-order reductions are byte-identical downstream too.
    StatRegistry::Snapshot m1 = mergedStats(serial);
    StatRegistry::Snapshot m4 = mergedStats(parallel);
    EXPECT_EQ(m1, m4);
    EXPECT_EQ(snapshotToJson(m1, specs.size()),
              snapshotToJson(m4, specs.size()));
}

TEST(RunnerDeterminism, SharedTextureStoresMatchFreshBuilds)
{
    // Two games x two resolutions x two seeds x two designs: each
    // (game, seed) key has four specs, so run() synthesizes each store
    // once and the other three specs adopt it, while runOne() builds
    // every scene fresh.
    std::vector<ExperimentSpec> specs;
    for (Game g : {Game::Doom3, Game::Riddick}) {
        for (Workload wl : {Workload{g, 96, 64}, Workload{g, 128, 96}}) {
            for (u64 seed : {u64(0x7e01d), u64(0x51)}) {
                for (Design d : {Design::Baseline, Design::ATfim}) {
                    ExperimentSpec spec;
                    spec.config.design = d;
                    spec.workload = wl;
                    spec.seed = seed;
                    spec.name = spec.defaultLabel() + "/s" +
                                std::to_string(seed);
                    specs.push_back(spec);
                }
            }
        }
    }
    specs[5].maxAniso = 2;

    std::vector<ExperimentResult> fresh;
    for (const ExperimentSpec &spec : specs) {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        fresh.push_back(ExperimentRunner::runOne(spec));
    }
    std::string fresh_merged =
        snapshotToJson(mergedStats(fresh), specs.size());

    // Two orders of the same specs: as built above, where each game's
    // two keys interleave, and key-contiguous (game-major, then seed),
    // where a later key is built only after an earlier key's last spec
    // has finished. Results go back to the built order for comparison.
    std::vector<size_t> built(specs.size());
    std::iota(built.begin(), built.end(), size_t(0));
    std::vector<size_t> contiguous = built;
    std::stable_sort(contiguous.begin(), contiguous.end(),
                     [&](size_t a, size_t b) {
                         return std::tie(specs[a].workload.game,
                                         specs[a].seed) <
                                std::tie(specs[b].workload.game,
                                         specs[b].seed);
                     });
    ASSERT_NE(contiguous, built);

    const std::pair<const char *, std::vector<size_t>> orders[] = {
        {"built order", built}, {"key-contiguous order", contiguous}};
    for (const auto &[label, order] : orders) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(label) + ", jobs=" +
                         std::to_string(jobs));
            std::vector<ExperimentSpec> ordered;
            for (size_t k : order)
                ordered.push_back(specs[k]);
            std::vector<ExperimentResult> run = runWith(jobs, ordered);
            ASSERT_EQ(run.size(), specs.size());
            std::vector<ExperimentResult> shared(specs.size());
            for (size_t k = 0; k < order.size(); ++k)
                shared[order[k]] = std::move(run[k]);
            for (size_t i = 0; i < specs.size(); ++i) {
                SCOPED_TRACE(specs[i].name);
                ASSERT_TRUE(shared[i].ok()) << shared[i].error.message;
                EXPECT_EQ(shared[i].imageFnv1a, fresh[i].imageFnv1a);
                EXPECT_EQ(shared[i].result.frame.frameCycles,
                          fresh[i].result.frame.frameCycles);
                EXPECT_EQ(shared[i].result.textureFilterCycles,
                          fresh[i].result.textureFilterCycles);
                EXPECT_EQ(shared[i].result.offChipTotalBytes,
                          fresh[i].result.offChipTotalBytes);
                EXPECT_EQ(shared[i].stats, fresh[i].stats);
            }
            EXPECT_EQ(snapshotToJson(mergedStats(shared), specs.size()),
                      fresh_merged);
        }
    }
}

TEST(RunnerDeterminism, JobsZeroMeansHardwareConcurrency)
{
    RunnerOptions opt;
    opt.jobs = 0;
    ExperimentRunner runner(opt);
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(runner.effectiveJobs(100), std::min<unsigned>(hw, 100));
    // Never more workers than specs, and never zero.
    EXPECT_EQ(runner.effectiveJobs(1), 1u);
    opt.jobs = 16;
    EXPECT_EQ(ExperimentRunner(opt).effectiveJobs(3), 3u);
}

TEST(RunnerDeterminism, ResultsArriveInSubmissionOrder)
{
    // Mixed sizes so completion order differs from submission order
    // under any schedule; results must still line up with the specs.
    std::vector<ExperimentSpec> specs;
    for (unsigned w : {192u, 64u, 160u, 96u}) {
        ExperimentSpec spec;
        spec.config.design = Design::Baseline;
        spec.workload = Workload{Game::Riddick, w, 48};
        specs.push_back(spec);
    }
    std::vector<ExperimentResult> results = runWith(4, specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(results[i].name, specs[i].defaultLabel());
}

TEST(RunnerDeterminism, MergedStatsSumPerSpecSnapshots)
{
    std::vector<ExperimentSpec> specs = eightSpecs();
    specs.resize(2); // Baseline on both workloads
    std::vector<ExperimentResult> results = runWith(2, specs);

    StatRegistry::Snapshot merged = mergedStats(results);
    EXPECT_DOUBLE_EQ(merged.at("renderer.frames"), 2.0);
    EXPECT_DOUBLE_EQ(merged.at("renderer.fragments_shaded"),
                     results[0].stats.at("renderer.fragments_shaded") +
                         results[1].stats.at("renderer.fragments_shaded"));
}

// --- SimContext isolation: what makes the above safe ---------------

TEST(SimContextIsolation, ScopeInstallsAndRestores)
{
    SimContext &before = SimContext::current();
    {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        EXPECT_EQ(&SimContext::current(), &ctx);
        EXPECT_NE(&SimContext::current(), &before);
        {
            SimContext inner;
            SimContext::Scope nested(inner);
            EXPECT_EQ(&SimContext::current(), &inner);
        }
        EXPECT_EQ(&SimContext::current(), &ctx);
    }
    EXPECT_EQ(&SimContext::current(), &before);
}

TEST(SimContextIsolation, StatGroupsLandInTheScopedRegistry)
{
    // Bind the process-default registry *before* installing a scope:
    // inside one, StatRegistry::instance() deliberately resolves to
    // the scoped registry (that is the compat shim's contract).
    StatRegistry &def = SimContext::processDefault().stats();
    size_t default_size = def.size();
    SimContext ctx;
    {
        SimContext::Scope scope(ctx);
        EXPECT_EQ(&StatRegistry::instance(), &ctx.stats());
        StatGroup g("scoped_group");
        g.counter("c", "scoped counter") += 7;
        EXPECT_EQ(ctx.stats().size(), 1u);
        EXPECT_DOUBLE_EQ(ctx.stats().snapshot().at("scoped_group.c"), 7.0);
        // The process-default registry did not see it.
        EXPECT_EQ(def.size(), default_size);
    }
    // The group died with the inner block, unregistering from ctx.
    EXPECT_EQ(ctx.stats().size(), 0u);
    EXPECT_EQ(&StatRegistry::instance(), &def);
}

TEST(SimContextIsolation, GroupUnregistersFromItsBirthRegistry)
{
    SimContext ctx;
    auto *g = [&] {
        SimContext::Scope scope(ctx);
        return new StatGroup("short_lived");
    }();
    EXPECT_EQ(ctx.stats().size(), 1u);
    delete g; // no scope installed here
    EXPECT_EQ(ctx.stats().size(), 0u);
}

TEST(SimContextIsolation, ThreadsSeeTheirOwnContexts)
{
    SimContext a, b;
    const StatRegistry *seen_a = nullptr, *seen_b = nullptr;
    std::thread ta([&] {
        SimContext::Scope scope(a);
        StatGroup g("thread_a");
        g.counter("c", "a counter") += 1;
        seen_a = &SimContext::current().stats();
    });
    std::thread tb([&] {
        SimContext::Scope scope(b);
        StatGroup g("thread_b");
        g.counter("c", "a counter") += 1;
        seen_b = &SimContext::current().stats();
    });
    ta.join();
    tb.join();
    EXPECT_EQ(seen_a, &a.stats());
    EXPECT_EQ(seen_b, &b.stats());
    // Each context saw exactly its own thread's group, nothing leaked
    // into the process default.
    EXPECT_EQ(a.stats().size(), 0u) << "groups unregister at scope exit";
    EXPECT_EQ(b.stats().size(), 0u);
}

} // namespace
} // namespace texpim
