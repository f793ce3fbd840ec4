#include <gtest/gtest.h>

#include <memory>

#include "common/stat_registry.hh"

namespace texpim {
namespace {

/** Groups live in the registry exactly while they exist. */
TEST(StatRegistry, GroupsRegisterAndUnregister)
{
    StatRegistry &reg = StatRegistry::instance();
    size_t before = reg.size();
    {
        StatGroup g("reg_test_group");
        EXPECT_EQ(reg.size(), before + 1);
        bool found = false;
        for (const auto &[display, grp] : reg.groups())
            if (grp == &g) {
                found = true;
                EXPECT_EQ(display, "reg_test_group");
            }
        EXPECT_TRUE(found);
    }
    EXPECT_EQ(reg.size(), before);
    for (const auto &[display, grp] : reg.groups())
        EXPECT_NE(display, "reg_test_group");
}

TEST(StatRegistry, EnumerationIsSortedByName)
{
    StatGroup c("reg_c");
    StatGroup a("reg_a");
    StatGroup b("reg_b");
    std::vector<std::string> order;
    for (const auto &[display, grp] : StatRegistry::instance().groups())
        if (display.rfind("reg_", 0) == 0)
            order.push_back(display);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "reg_a");
    EXPECT_EQ(order[1], "reg_b");
    EXPECT_EQ(order[2], "reg_c");
}

TEST(StatRegistry, DuplicateNamesGetStableSuffixes)
{
    StatGroup g1("reg_dup");
    StatGroup g2("reg_dup");
    StatGroup g3("reg_dup");
    std::vector<std::pair<std::string, const StatGroup *>> dups;
    for (const auto &e : StatRegistry::instance().groups())
        if (e.second == &g1 || e.second == &g2 || e.second == &g3)
            dups.push_back(e);
    ASSERT_EQ(dups.size(), 3u);
    // Registration order decides the suffix.
    EXPECT_EQ(dups[0].first, "reg_dup");
    EXPECT_EQ(dups[0].second, &g1);
    EXPECT_EQ(dups[1].first, "reg_dup#2");
    EXPECT_EQ(dups[1].second, &g2);
    EXPECT_EQ(dups[2].first, "reg_dup#3");
    EXPECT_EQ(dups[2].second, &g3);
}

TEST(StatRegistry, SnapshotCoversEveryStatKind)
{
    StatGroup g("reg_snap");
    g.counter("c", "a counter") += 7;
    StatAverage &a = g.average("a", "an average");
    a.sample(2.0);
    a.sample(4.0);
    g.histogram("h", 0.0, 10.0, 4, "a histogram").sample(3.0);

    StatRegistry::Snapshot s = StatRegistry::instance().snapshot();
    EXPECT_DOUBLE_EQ(s.at("reg_snap.c"), 7.0);
    EXPECT_DOUBLE_EQ(s.at("reg_snap.a.sum"), 6.0);
    EXPECT_DOUBLE_EQ(s.at("reg_snap.a.count"), 2.0);
    EXPECT_DOUBLE_EQ(s.at("reg_snap.h.samples"), 1.0);
}

TEST(StatRegistry, DeltaIsCurrentMinusSnapshot)
{
    StatGroup g("reg_delta");
    StatCounter &c = g.counter("c", "a counter");
    c += 10;
    StatRegistry::Snapshot before = StatRegistry::instance().snapshot();

    c += 5;
    g.average("a", "an average").sample(1.0); // new stat after the snapshot

    StatRegistry::Snapshot d = StatRegistry::instance().delta(before);
    EXPECT_DOUBLE_EQ(d.at("reg_delta.c"), 5.0);
    // Stats born after the snapshot contribute their full value.
    EXPECT_DOUBLE_EQ(d.at("reg_delta.a.count"), 1.0);
}

TEST(StatRegistry, ResetAllZeroesLiveGroupsAndDeltaFollows)
{
    StatGroup g("reg_reset");
    StatCounter &c = g.counter("c", "a counter");
    c += 42;
    g.histogram("h", 0.0, 1.0, 2, "a histogram").sample(0.5);

    StatRegistry::Snapshot before = StatRegistry::instance().snapshot();
    g.resetAll();

    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.histograms().at("h").samples(), 0u);

    // Documented contract: post-reset deltas against a pre-reset
    // snapshot go negative; per-frame users re-snapshot after reset.
    StatRegistry::Snapshot d = StatRegistry::instance().delta(before);
    EXPECT_DOUBLE_EQ(d.at("reg_reset.c"), -42.0);

    StatRegistry::Snapshot fresh = StatRegistry::instance().snapshot();
    c += 3;
    EXPECT_DOUBLE_EQ(
        StatRegistry::instance().delta(fresh).at("reg_reset.c"), 3.0);
}

TEST(StatRegistry, PerFrameDeltaAcrossTwoFrames)
{
    // The per-frame accounting pattern end to end: snapshot, work,
    // delta, reset, re-snapshot, work, delta.
    StatGroup g("reg_frame");
    StatRegistry &reg = StatRegistry::instance();

    StatCounter &tiles = g.counter("tiles", "tiles rendered");
    StatRegistry::Snapshot s0 = reg.snapshot();
    tiles += 4;
    EXPECT_DOUBLE_EQ(reg.delta(s0).at("reg_frame.tiles"), 4.0);

    g.resetAll();
    StatRegistry::Snapshot s1 = reg.snapshot();
    tiles += 9;
    EXPECT_DOUBLE_EQ(reg.delta(s1).at("reg_frame.tiles"), 9.0);
}

} // namespace
} // namespace texpim
