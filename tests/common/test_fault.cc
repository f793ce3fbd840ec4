#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.hh"
#include "pim/robustness.hh"

namespace texpim {
namespace {

TEST(FaultParams, FromConfigReadsKeys)
{
    Config cfg;
    cfg.set("fault_seed", "123");
    cfg.set("fault_link_ber", "0.25");
    cfg.set("fault_vault_ber", "0.125");
    cfg.set("fault_burst_len", "4");
    FaultParams p = FaultParams::fromConfig(cfg);
    EXPECT_EQ(p.seed, 123u);
    EXPECT_DOUBLE_EQ(p.linkBer, 0.25);
    EXPECT_DOUBLE_EQ(p.vaultBer, 0.125);
    EXPECT_EQ(p.burstLen, 4u);
    EXPECT_TRUE(p.enabled());
}

TEST(FaultParams, DefaultsAreDisabled)
{
    Config cfg;
    FaultParams p = FaultParams::fromConfig(cfg);
    EXPECT_FALSE(p.enabled());
    EXPECT_DOUBLE_EQ(p.linkBer, 0.0);
    EXPECT_DOUBLE_EQ(p.vaultBer, 0.0);
}

TEST(FaultParamsDeath, BerOutOfRangeIsFatal)
{
    Config cfg;
    cfg.set("fault_link_ber", "1.5");
    EXPECT_EXIT({ (void)FaultParams::fromConfig(cfg); },
                testing::ExitedWithCode(1), "fault_link_ber");
}

TEST(FaultParamsDeath, BurstLenOutOfRangeIsFatal)
{
    // Read as unsigned in [1, 2^32-1]: negative values and values past
    // 32 bits fail naming the key instead of wrapping.
    for (const char *raw : {"-1", "0", "4294967296"}) {
        Config cfg;
        cfg.set("fault_burst_len", raw);
        EXPECT_EXIT({ (void)FaultParams::fromConfig(cfg); },
                    testing::ExitedWithCode(1),
                    std::string("fault_burst_len must be between 1 and "
                                "4294967295, got ") +
                        raw)
            << raw;
    }
}

TEST(RobustnessParamsDeath, NegativeKeysAreFatal)
{
    // A wrapped negative timeout would put every package deadline
    // below its issue cycle and silently degrade every offload.
    for (const char *key :
         {"fault_package_timeout", "fault_degrade_min_packets"}) {
        for (const char *raw : {"-5", "4294967296"}) {
            Config cfg;
            cfg.set(key, raw);
            EXPECT_EXIT({ (void)RobustnessParams::fromConfig(cfg); },
                        testing::ExitedWithCode(1),
                        std::string(key) +
                            " must be between 0 and 4294967295, got " + raw)
                << key << "=" << raw;
        }
    }
}

TEST(Fault, DisabledNeverFiresAndNeverCounts)
{
    FaultInjector f;
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(f.fire());
    EXPECT_FALSE(f.enabled());
}

TEST(Fault, AlwaysFiresAtProbabilityOne)
{
    FaultInjector f("test.p1", 1.0, 1, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(f.fire());
}

TEST(Fault, SameSeedSameSiteIsDeterministic)
{
    FaultInjector a("test.det", 0.3, 1, 7);
    FaultInjector b("test.det", 0.3, 1, 7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(a.fire(), b.fire()) << "trial " << i;
}

TEST(Fault, DifferentSeedsDiverge)
{
    FaultInjector a("test.div", 0.3, 1, 7);
    FaultInjector b("test.div", 0.3, 1, 8);
    unsigned diffs = 0;
    for (int i = 0; i < 10000; ++i)
        diffs += a.fire() != b.fire();
    EXPECT_GT(diffs, 0u);
}

TEST(Fault, DifferentSitesGetIndependentStreams)
{
    EXPECT_NE(faultSiteSeed(7, "hmc0.link_tx"),
              faultSiteSeed(7, "hmc0.link_rx"));
    FaultInjector a("site.a", 0.3, 1, 7);
    FaultInjector b("site.b", 0.3, 1, 7);
    unsigned diffs = 0;
    for (int i = 0; i < 10000; ++i)
        diffs += a.fire() != b.fire();
    EXPECT_GT(diffs, 0u);
}

TEST(Fault, ObservedRateTracksProbability)
{
    FaultInjector f("test.rate", 0.1, 1, 99);
    const int trials = 100000;
    int faults = 0;
    for (int i = 0; i < trials; ++i)
        faults += f.fire();
    double rate = double(faults) / double(trials);
    EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(Fault, BurstExtendsFaults)
{
    // With burst_len = 4, every fault run must be a multiple-of-4
    // length (a fresh fire during a burst tail cannot happen because
    // burst trials skip the RNG), and the overall fault rate must be
    // roughly 4x the trigger probability.
    FaultInjector f("test.burst", 0.02, 4, 5);
    const int trials = 100000;
    int faults = 0;
    std::vector<unsigned> runs;
    unsigned run = 0;
    for (int i = 0; i < trials; ++i) {
        if (f.fire()) {
            ++faults;
            ++run;
        } else if (run > 0) {
            runs.push_back(run);
            run = 0;
        }
    }
    ASSERT_FALSE(runs.empty());
    for (unsigned r : runs)
        EXPECT_EQ(r % 4, 0u);
    double rate = double(faults) / double(trials);
    EXPECT_NEAR(rate, 0.08, 0.02);
}

} // namespace
} // namespace texpim
