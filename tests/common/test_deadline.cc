/**
 * @file
 * The watchdog Deadline: zero-overhead when unarmed, cooperative
 * SimTimeout cancellation when armed and expired, and clean re-arm /
 * disarm transitions (the runner arms it once per attempt).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/deadline.hh"
#include "common/sim_context.hh"

namespace texpim {
namespace {

TEST(Deadline, UnarmedCheckIsANoop)
{
    Deadline d;
    EXPECT_FALSE(d.armed());
    EXPECT_FALSE(d.expired());
    d.check("nowhere"); // must not throw
    SUCCEED();
}

TEST(Deadline, ArmedButNotExpiredDoesNotThrow)
{
    Deadline d;
    d.arm(60000);
    EXPECT_TRUE(d.armed());
    EXPECT_FALSE(d.expired());
    d.check("renderer.tile");
    d.disarm();
    EXPECT_FALSE(d.armed());
}

TEST(Deadline, ExpiryThrowsSimTimeoutWithSiteAndBudget)
{
    Deadline d;
    d.arm(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(d.expired());
    try {
        d.check("renderer.frame");
        FAIL() << "expired deadline did not throw";
    } catch (const SimTimeout &e) {
        EXPECT_EQ(e.site(), "renderer.frame");
        EXPECT_EQ(e.timeoutMs(), 1u);
        EXPECT_NE(std::string(e.what()).find("sim.job_timeout_ms=1"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("renderer.frame"),
                  std::string::npos);
    }
}

TEST(Deadline, DisarmSilencesAnExpiredDeadline)
{
    Deadline d;
    d.arm(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    d.disarm();
    EXPECT_FALSE(d.expired());
    d.check("after-disarm");
    SUCCEED();
}

TEST(Deadline, RearmRestartsTheBudget)
{
    Deadline d;
    d.arm(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    d.arm(60000); // a second arm() replaces the first budget
    d.check("fresh-budget");
    EXPECT_TRUE(d.armed());
    EXPECT_EQ(d.timeoutMs(), 60000u);
}

TEST(Deadline, EverySimContextCarriesItsOwnDeadline)
{
    SimContext a, b;
    a.deadline().arm(1);
    EXPECT_TRUE(a.deadline().armed());
    EXPECT_FALSE(b.deadline().armed());
    {
        SimContext::Scope scope(a);
        EXPECT_TRUE(SimContext::current().deadline().armed());
    }
    a.deadline().disarm();
}

} // namespace
} // namespace texpim
