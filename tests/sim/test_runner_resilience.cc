/**
 * @file
 * The runner's resilience layer: job-level fault containment (a
 * throwing/panicking spec is isolated from its siblings), watchdog
 * timeouts, injected HMC faults counted by the HMC's own stat group,
 * and checkpoint/resume through the sweep journal with byte-identical
 * merged outputs at any worker count.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "sim/runner/experiment_runner.hh"
#include "sim/runner/sweep_journal.hh"

namespace texpim {
namespace {

ExperimentSpec
smallSpec(Design d, Game g = Game::Doom3)
{
    ExperimentSpec spec;
    spec.config.design = d;
    spec.workload = Workload{g, 64, 48};
    spec.frame = 3;
    return spec;
}

std::vector<std::string>
labelsOf(const std::vector<ExperimentSpec> &specs)
{
    std::vector<std::string> out;
    out.reserve(specs.size());
    for (const ExperimentSpec &s : specs)
        out.push_back(s.name.empty() ? s.defaultLabel() : s.name);
    return out;
}

void
expectSameOutcome(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error.category, b.error.category);
    EXPECT_EQ(a.result.frame.frameCycles, b.result.frame.frameCycles);
    EXPECT_EQ(a.result.textureFilterCycles, b.result.textureFilterCycles);
    EXPECT_EQ(a.result.textureTrafficBytes, b.result.textureTrafficBytes);
    EXPECT_EQ(a.result.offChipTotalBytes, b.result.offChipTotalBytes);
    EXPECT_EQ(a.result.angleRecalcs, b.result.angleRecalcs);
    EXPECT_EQ(a.result.energy.total(), b.result.energy.total());
    EXPECT_EQ(a.imageFnv1a, b.imageFnv1a);
    EXPECT_EQ(a.stats, b.stats);
}

// --- containment ----------------------------------------------------

TEST(RunnerResilience, ThrowingSpecIsIsolatedFromSiblings)
{
    std::vector<ExperimentSpec> specs = {
        smallSpec(Design::Baseline), smallSpec(Design::BPim),
        smallSpec(Design::STfim)};
    specs[1].inject = InjectedFailure::Throw;

    for (unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        RunnerOptions opt;
        opt.jobs = jobs;
        std::vector<ExperimentResult> results =
            ExperimentRunner(opt).run(specs);
        ASSERT_EQ(results.size(), 3u);

        EXPECT_TRUE(results[0].ok());
        EXPECT_NE(results[0].imageFnv1a, 0u);

        EXPECT_EQ(results[1].status, JobStatus::Failed);
        EXPECT_EQ(results[1].error.category, JobErrorCategory::Exception);
        EXPECT_EQ(results[1].error.specIndex, 1u);
        EXPECT_NE(results[1].error.message.find("injected failure: throw"),
                  std::string::npos);
        EXPECT_EQ(results[1].imageFnv1a, 0u);
        EXPECT_TRUE(results[1].stats.empty())
            << "failed spec leaked stats into its result";

        EXPECT_TRUE(results[2].ok());
        EXPECT_NE(results[2].imageFnv1a, 0u);
    }
}

TEST(RunnerResilience, ContainedPanicRecordsSiteAndSparesTheProcess)
{
    StatRegistry &def = SimContext::processDefault().stats();
    size_t default_groups = def.size();

    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline)};
    specs[0].inject = InjectedFailure::Panic;
    std::vector<ExperimentResult> results =
        ExperimentRunner(RunnerOptions{}).run(specs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[0].error.category, JobErrorCategory::Panic);
    EXPECT_NE(results[0].error.site.find("experiment_runner.cc:"),
              std::string::npos)
        << results[0].error.site;
    EXPECT_NE(results[0].error.message.find("injected failure: panic"),
              std::string::npos);

    // The containment (handler + per-job SimContext) left the
    // process-default registry exactly as it was.
    EXPECT_EQ(def.size(), default_groups);
    EXPECT_FALSE(ScopedPanicHandler::installed());
}

TEST(RunnerResilience, FailedSpecsContributeNothingToMergedStats)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline),
                                         smallSpec(Design::BPim)};
    specs[1].inject = InjectedFailure::Throw;
    std::vector<ExperimentResult> results =
        ExperimentRunner(RunnerOptions{}).run(specs);
    StatRegistry::Snapshot merged = mergedStats(results);
    EXPECT_EQ(merged, results[0].stats)
        << "merged stats must be exactly the surviving spec's snapshot";
}

TEST(RunnerResilience, FailedSharedBuildFailsOnlyItsUsers)
{
    // Two specs share an out-of-range game, so the first to claim that
    // key panics in buildGameScene and the other rethrows its error.
    // Explicit names keep defaultLabel() (which names the game) out of
    // it. The Riddick key's first user fails before it claims the key,
    // so a sibling builds the store instead.
    std::vector<ExperimentSpec> specs = {
        smallSpec(Design::Baseline, Game(99)), smallSpec(Design::Baseline),
        smallSpec(Design::BPim, Game(99)),     smallSpec(Design::BPim),
        smallSpec(Design::STfim, Game::Riddick),
        smallSpec(Design::Baseline, Game::Riddick),
        smallSpec(Design::ATfim, Game::Riddick)};
    specs[0].name = "bad-game/a";
    specs[2].name = "bad-game/b";
    specs[4].inject = InjectedFailure::Throw;
    const size_t bad[] = {0, 2};
    const size_t good[] = {1, 3, 5, 6};

    std::vector<ExperimentResult> clean(specs.size());
    for (size_t i : good) {
        SimContext ctx;
        SimContext::Scope scope(ctx);
        clean[i] = ExperimentRunner::runOne(specs[i]);
    }

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        RunnerOptions opt;
        opt.jobs = jobs;
        std::vector<ExperimentResult> results =
            ExperimentRunner(opt).run(specs);
        ASSERT_EQ(results.size(), specs.size());

        for (size_t i : bad) {
            SCOPED_TRACE(specs[i].name);
            EXPECT_EQ(results[i].name, specs[i].name);
            EXPECT_EQ(results[i].status, JobStatus::Failed);
            EXPECT_EQ(results[i].error.category, JobErrorCategory::Panic);
            EXPECT_EQ(results[i].error.specIndex, i);
            EXPECT_NE(results[i].error.message.find("bad game"),
                      std::string::npos)
                << results[i].error.message;
            EXPECT_NE(results[i].error.site.find("game_profiles.cc:"),
                      std::string::npos)
                << results[i].error.site;
            EXPECT_TRUE(results[i].stats.empty());
        }

        EXPECT_EQ(results[4].status, JobStatus::Failed);
        EXPECT_EQ(results[4].error.category, JobErrorCategory::Exception);
        EXPECT_NE(results[4].error.message.find("injected failure: throw"),
                  std::string::npos);

        for (size_t i : good) {
            SCOPED_TRACE(results[i].name);
            ASSERT_TRUE(results[i].ok()) << results[i].error.message;
            expectSameOutcome(results[i], clean[i]);
        }
    }
}

// --- watchdog -------------------------------------------------------

TEST(RunnerResilience, WatchdogCancelsARealRenderAtAPollSite)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline)};
    RunnerOptions opt;
    opt.jobTimeoutMs = 1; // a 64x48 frame takes far longer than 1 ms
    std::vector<ExperimentResult> results =
        ExperimentRunner(opt).run(specs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Timeout);
    EXPECT_EQ(results[0].error.category, JobErrorCategory::Timeout);
    EXPECT_TRUE(results[0].error.site == "renderer.frame" ||
                results[0].error.site == "renderer.tile")
        << "timeout observed at '" << results[0].error.site
        << "', not a render-loop poll site";
}

TEST(RunnerResilience, HangInjectionTimesOutCooperatively)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline)};
    specs[0].inject = InjectedFailure::Hang;
    RunnerOptions opt;
    opt.jobTimeoutMs = 50;
    std::vector<ExperimentResult> results =
        ExperimentRunner(opt).run(specs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Timeout);
    EXPECT_EQ(results[0].error.site, "runner.inject_hang");
}

TEST(RunnerResilience, HangWithoutWatchdogPanicsInsteadOfWedging)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline)};
    specs[0].inject = InjectedFailure::Hang;
    std::vector<ExperimentResult> results =
        ExperimentRunner(RunnerOptions{}).run(specs); // no jobTimeoutMs
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[0].error.category, JobErrorCategory::Panic);
}

// --- fault accounting -----------------------------------------------

TEST(RunnerResilience, InjectedFaultsAreTheHmcStatGroupsCount)
{
    // Link and vault faults, with bursts, on every design.
    std::vector<ExperimentSpec> specs;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        ExperimentSpec spec = smallSpec(d);
        spec.config.hmc.fault.linkBer = 0.05;
        spec.config.hmc.fault.vaultBer = 0.01;
        spec.config.hmc.fault.burstLen = 3;
        specs.push_back(spec);
    }
    std::vector<ExperimentResult> results =
        ExperimentRunner(RunnerOptions{}).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    // Every fire() that returns true is one hmc.crc_errors or one
    // hmc.vault_retries; Baseline has no HMC and no fault site. The
    // pinned totals count every fire() at the three sites of each
    // cube, so a fault the stat group drops or counts twice moves them.
    const u64 expected[] = {0, 963, 3279, 1497};
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(results[i].name);
        ASSERT_TRUE(results[i].ok());
        const StatRegistry::Snapshot &s = results[i].stats;
        double crc = s.count("hmc.crc_errors") ? s.at("hmc.crc_errors") : 0;
        double vault =
            s.count("hmc.vault_retries") ? s.at("hmc.vault_retries") : 0;
        EXPECT_EQ(injectedFaults(s), u64(crc + vault));
        EXPECT_EQ(injectedFaults(s), expected[i]);
    }
}

// --- journal / resume -----------------------------------------------

TEST(SweepJournal, RoundTripRestoresResultsBitExactly)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline),
                                         smallSpec(Design::BPim)};
    specs[1].inject = InjectedFailure::Throw; // failed rows journal too
    std::string path = testing::TempDir() + "texpim_journal_rt.jsonl";

    RunnerOptions opt;
    SweepJournal journal(path, specs.size(), /*fresh=*/true);
    opt.journal = &journal;
    std::vector<ExperimentResult> results =
        ExperimentRunner(opt).run(specs);

    // The same rows as older builds wrote them, with "attempts" and
    // "total_faults": the loader ignores both fields.
    std::string legacy = testing::TempDir() + "texpim_journal_legacy.jsonl";
    {
        std::ifstream in(path);
        std::ofstream out(legacy);
        std::string line;
        std::getline(in, line);
        out << line << "\n"; // header
        while (std::getline(in, line)) {
            auto insert = [&](const std::string &before,
                              const std::string &field) {
                size_t at = line.find(before);
                ASSERT_NE(at, std::string::npos) << line;
                line.insert(at + 1, field);
            };
            insert(",\"error\":", "\"attempts\":1,");
            insert(",\"frame_cycles\":",
                   "\"total_faults\":\"0000000000000bee\",");
            out << line << "\n";
        }
    }

    for (const std::string &file : {path, legacy}) {
        SCOPED_TRACE(file);
        std::map<size_t, ExperimentResult> restored =
            SweepJournal::load(file, labelsOf(specs));
        ASSERT_EQ(restored.size(), 2u);
        for (size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE(results[i].name);
            ASSERT_TRUE(restored.count(i));
            expectSameOutcome(results[i], restored.at(i));
            EXPECT_EQ(restored.at(i).error.message,
                      results[i].error.message);
            EXPECT_EQ(restored.at(i).error.site, results[i].error.site);
        }
    }
    std::remove(path.c_str());
    std::remove(legacy.c_str());
}

TEST(SweepJournal, ResumeReproducesAnUninterruptedRunAtAnyJobs)
{
    std::vector<ExperimentSpec> specs = {
        smallSpec(Design::Baseline), smallSpec(Design::BPim),
        smallSpec(Design::STfim), smallSpec(Design::ATfim)};
    std::string path = testing::TempDir() + "texpim_journal_resume.jsonl";

    // The uninterrupted reference run, journaled.
    RunnerOptions full_opt;
    SweepJournal journal(path, specs.size(), /*fresh=*/true);
    full_opt.journal = &journal;
    std::vector<ExperimentResult> full =
        ExperimentRunner(full_opt).run(specs);
    std::string full_merged = snapshotToJson(mergedStats(full), 4);

    // Simulate a kill after two completed specs: truncate the journal
    // to its header plus the first two rows.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string l; std::getline(in, l);)
            lines.push_back(l);
    }
    ASSERT_EQ(lines.size(), 1 + specs.size());
    std::string partial = testing::TempDir() + "texpim_journal_part.jsonl";
    {
        std::ofstream out(partial);
        for (size_t i = 0; i < 3; ++i)
            out << lines[i] << "\n";
    }

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::map<size_t, ExperimentResult> restored =
            SweepJournal::load(partial, labelsOf(specs));
        ASSERT_EQ(restored.size(), 2u);
        RunnerOptions opt;
        opt.jobs = jobs;
        opt.resumed = &restored;
        std::vector<ExperimentResult> resumed =
            ExperimentRunner(opt).run(specs);
        ASSERT_EQ(resumed.size(), full.size());
        for (size_t i = 0; i < full.size(); ++i) {
            SCOPED_TRACE(full[i].name);
            expectSameOutcome(full[i], resumed[i]);
        }
        EXPECT_EQ(snapshotToJson(mergedStats(resumed), 4), full_merged)
            << "merged stats diverged across the resume boundary";
    }
    std::remove(path.c_str());
    std::remove(partial.c_str());
}

TEST(SweepJournal, TornFinalLineIsDroppedWithAWarning)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline),
                                         smallSpec(Design::BPim)};
    specs[0].inject = InjectedFailure::Throw; // cheap rows, no render
    specs[1].inject = InjectedFailure::Throw;
    std::string path = testing::TempDir() + "texpim_journal_torn.jsonl";

    RunnerOptions opt;
    SweepJournal journal(path, specs.size(), /*fresh=*/true);
    opt.journal = &journal;
    ExperimentRunner(opt).run(specs);
    {
        // A kill mid-append tears the final line.
        std::ifstream in(path);
        std::vector<std::string> lines;
        for (std::string l; std::getline(in, l);)
            lines.push_back(l);
        in.close();
        std::ofstream out(path);
        out << lines[0] << "\n" << lines[1] << "\n";
        out << lines[2].substr(0, lines[2].size() / 2); // torn
    }

    setLogQuiet(true);
    unsigned long warns = warnCount();
    std::map<size_t, ExperimentResult> restored =
        SweepJournal::load(path, labelsOf(specs));
    setLogQuiet(false);
    EXPECT_EQ(restored.size(), 1u) << "torn row must not be restored";
    EXPECT_TRUE(restored.count(0));
    EXPECT_GT(warnCount(), warns) << "torn line should warn";
    std::remove(path.c_str());
}

TEST(SweepJournalDeath, ResumingADifferentGridIsFatal)
{
    std::vector<ExperimentSpec> specs = {smallSpec(Design::Baseline),
                                         smallSpec(Design::BPim)};
    specs[0].inject = InjectedFailure::Throw;
    specs[1].inject = InjectedFailure::Throw;
    std::string path = testing::TempDir() + "texpim_journal_grid.jsonl";
    RunnerOptions opt;
    SweepJournal journal(path, specs.size(), /*fresh=*/true);
    opt.journal = &journal;
    ExperimentRunner(opt).run(specs);

    // Wrong spec count.
    EXPECT_EXIT(SweepJournal::load(path, {"only-one"}),
                testing::ExitedWithCode(1), "resume must use the same grid");
    // Right count, wrong names.
    EXPECT_EXIT(SweepJournal::load(path, {"wrong/a", "wrong/b"}),
                testing::ExitedWithCode(1), "resume must use the same grid");

    // A malformed row before the final one is corruption, not a torn
    // append.
    std::string bad = testing::TempDir() + "texpim_journal_bad.jsonl";
    {
        std::ifstream in(path);
        std::ofstream out(bad);
        bool corrupted = false;
        for (std::string l; std::getline(in, l);) {
            size_t at = l.find("\"image_fnv1a\":\"");
            if (at != std::string::npos && !corrupted) {
                l.insert(at + 15, "zz");
                corrupted = true;
            }
            out << l << "\n";
        }
        ASSERT_TRUE(corrupted);
    }
    EXPECT_EXIT(SweepJournal::load(bad, labelsOf(specs)),
                testing::ExitedWithCode(1), "only the final line may be torn");
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

} // namespace
} // namespace texpim
