#include <gtest/gtest.h>

#include <sstream>

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

} // namespace
} // namespace texpim
