#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quality/image_metrics.hh"
#include "sim/experiment.hh"

namespace texpim {
namespace {

TEST(Experiment, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(ExperimentDeath, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH({ (void)geomean({1.0, 0.0}); }, "positive");
}

TEST(Experiment, SuiteWorkloadsDownscale)
{
    SuiteOptions opt;
    opt.resolutionDivisor = 2;
    auto wl = suiteWorkloads(opt);
    ASSERT_EQ(wl.size(), 10u);
    EXPECT_EQ(wl[0].width, 640u);  // 1280 / 2
    EXPECT_EQ(wl[0].height, 512u); // 1024 / 2
}

TEST(Experiment, ResultTablePrintsRowsAndAverage)
{
    ResultTable t("demo", {"a", "b"});
    t.addColumn("x", {1.0, 3.0});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("average"), std::string::npos);
    EXPECT_NE(s.find("2.00"), std::string::npos); // mean of 1 and 3
}

TEST(ExperimentDeath, ColumnLengthMismatchPanics)
{
    ResultTable t("demo", {"a", "b"});
    EXPECT_DEATH({ t.addColumn("x", {1.0}); }, "has 1 values for 2 rows");
}

SuiteOptions
parseArgs(std::vector<std::string> args)
{
    std::string prog = "bench";
    std::vector<char *> argv{prog.data()};
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseSuiteArgs(int(argv.size()), argv.data());
}

TEST(Experiment, ParseSuiteArgsReadsEveryFlag)
{
    SuiteOptions opt = parseArgs({"--quick", "--frame", "5", "--seed",
                                  "0x10", "--jobs", "3", "--timeout-ms",
                                  "250", "--verbose"});
    EXPECT_EQ(opt.resolutionDivisor, 2u);
    EXPECT_EQ(opt.frame, 5u);
    EXPECT_EQ(opt.seed, 0x10u);
    EXPECT_EQ(opt.jobs, 3u);
    EXPECT_EQ(opt.jobTimeoutMs, 250u);
    EXPECT_TRUE(opt.verbose);
    EXPECT_EQ(parseArgs({"--seed", "18446744073709551615"}).seed,
              ~u64(0));
}

TEST(ExperimentDeath, ParseSuiteArgsRejectsBadValues)
{
    const auto fails = testing::ExitedWithCode(1);
    EXPECT_EXIT(parseArgs({"--frame", "abc"}), fails,
                "fatal: --frame must be between 0 and [0-9]+, got abc");
    EXPECT_EXIT(parseArgs({"--frame", "-1"}), fails,
                "fatal: --frame must be between 0 and [0-9]+, got -1");
    EXPECT_EXIT(parseArgs({"--jobs", "abc"}), fails,
                "fatal: --jobs must be between 0 and [0-9]+, got abc");
    EXPECT_EXIT(parseArgs({"--timeout-ms", "-5"}), fails,
                "fatal: --timeout-ms must be between 0 and [0-9]+, got -5");
    EXPECT_EXIT(parseArgs({"--seed", "abc"}), fails,
                "fatal: --seed must be an unsigned 64-bit integer, got abc");
    EXPECT_EXIT(parseArgs({"--seed", "-1"}), fails,
                "fatal: --seed must be an unsigned 64-bit integer, got -1");
    EXPECT_EXIT(parseArgs({"--seed", "18446744073709551616"}), fails,
                "fatal: --seed must be an unsigned 64-bit integer");
    EXPECT_EXIT(parseArgs({"--bogus"}), fails,
                "fatal: unknown argument '--bogus'");
}

TEST(ExperimentDeath, ParseSuiteArgsNamesAFlagMissingItsValue)
{
    for (const char *flag : {"--frame", "--seed", "--jobs", "--timeout-ms"})
        EXPECT_EXIT(parseArgs({"--quick", flag}),
                    testing::ExitedWithCode(1),
                    std::string("fatal: ") + flag + " needs a value");
}

/** A spec's result must not depend on which other configs share its
 *  grid: paper_figures runs every figure's design points in one pool. */
TEST(Experiment, GridNeighboursDoNotChangeASpec)
{
    SuiteOptions opt;
    opt.resolutionDivisor = 8;
    opt.jobs = 2;
    SimConfig a;
    a.design = Design::ATfim;
    SimConfig b;
    b.design = Design::STfim;

    std::vector<WorkloadResult> alone = runSuites({a}, opt)[0];
    std::vector<WorkloadResult> shared = runSuites({b, a}, opt)[1];
    ASSERT_EQ(alone.size(), shared.size());
    for (size_t i = 0; i < alone.size(); ++i) {
        const SimResult &x = alone[i].result;
        const SimResult &y = shared[i].result;
        SCOPED_TRACE(alone[i].workload.label());
        EXPECT_EQ(x.frame.frameCycles, y.frame.frameCycles);
        EXPECT_EQ(x.textureFilterCycles, y.textureFilterCycles);
        EXPECT_EQ(x.offChipTotalBytes, y.offChipTotalBytes);
        EXPECT_EQ(imageHash(*x.image), imageHash(*y.image));
    }
}

} // namespace
} // namespace texpim
