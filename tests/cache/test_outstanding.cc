#include <gtest/gtest.h>

#include "cache/outstanding.hh"

namespace texpim {
namespace {

TEST(OutstandingMisses, MergeInheritsCompletion)
{
    OutstandingMisses o;
    EXPECT_EQ(o.lookup(0x100, 10), kNeverCycle);
    o.insert(0x100, 50);
    EXPECT_EQ(o.lookup(0x100, 20), 50u);
    EXPECT_EQ(o.inFlight(), 1u);
}

TEST(OutstandingMisses, CompletedEntryNoLongerMerges)
{
    OutstandingMisses o;
    o.insert(0x100, 50);
    EXPECT_EQ(o.lookup(0x100, 50), kNeverCycle); // exactly at completion
    EXPECT_EQ(o.lookup(0x100, 60), kNeverCycle);
}

TEST(OutstandingMisses, ExpiryBoundaryIsExclusive)
{
    // An entry completing at cycle R merges at R-1 but is dead at R:
    // the fill has landed in the cache, so a request issued at R sees
    // a normal hit/miss there, not a merge.
    OutstandingMisses o;
    o.insert(0x100, 50);
    EXPECT_EQ(o.lookup(0x100, 49), 50u);
    EXPECT_EQ(o.lookup(0x100, 50), kNeverCycle);
    // Expiry is by time alone: an earlier probe still merges.
    EXPECT_EQ(o.lookup(0x100, 0), 50u);
}

TEST(OutstandingMisses, ReinsertAfterExpiryStartsAFreshMiss)
{
    OutstandingMisses o;
    o.insert(0x100, 50);
    EXPECT_EQ(o.lookup(0x100, 60), kNeverCycle); // expired
    o.insert(0x100, 90);                         // line fetched again
    EXPECT_EQ(o.lookup(0x100, 60), 90u);
    EXPECT_EQ(o.lookup(0x100, 90), kNeverCycle);
    EXPECT_EQ(o.inFlight(), 1u);
}

TEST(OutstandingMisses, InsertOverwritesCompletionCycle)
{
    // Re-inserting an in-flight line adopts the new completion time;
    // later merges inherit it.
    OutstandingMisses o;
    o.insert(0x100, 50);
    o.insert(0x100, 80);
    EXPECT_EQ(o.lookup(0x100, 10), 80u);
    EXPECT_EQ(o.inFlight(), 1u);
}

TEST(OutstandingMisses, EveryMergeInheritsTheSameCompletion)
{
    // N requests to one outstanding line = 1 miss + N-1 merges, all
    // completing together (the MSHR contract the texture paths use).
    // A merge leaves the entry as it was.
    OutstandingMisses o;
    o.insert(0x100, 200);
    for (Cycle now = 0; now < 100; now += 10)
        EXPECT_EQ(o.lookup(0x100, now), 200u);
    EXPECT_EQ(o.inFlight(), 1u);
}

TEST(OutstandingMisses, DistinctLinesIndependent)
{
    OutstandingMisses o;
    o.insert(0x100, 50);
    o.insert(0x200, 70);
    EXPECT_EQ(o.lookup(0x200, 0), 70u);
    EXPECT_EQ(o.lookup(0x300, 0), kNeverCycle);
}

TEST(OutstandingMisses, ClearEmpties)
{
    OutstandingMisses o;
    o.insert(0x100, 50);
    o.clear();
    EXPECT_EQ(o.lookup(0x100, 0), kNeverCycle);
    EXPECT_EQ(o.inFlight(), 0u);
}

TEST(OutstandingMisses, PruneEventuallyDropsStaleEntries)
{
    OutstandingMisses o;
    for (Addr a = 0; a < 100; ++a)
        o.insert(a * 64, 10);
    // Drive enough lookups past the amortized-prune interval.
    for (int i = 0; i < 5000; ++i)
        (void)o.lookup(0xdead'0000, 1000);
    EXPECT_LT(o.inFlight(), 100u);
}

} // namespace
} // namespace texpim
