#include <gtest/gtest.h>

#include <vector>

#include "mem/hmc.hh"
#include "pim/robustness.hh"

namespace texpim {
namespace {

u64
counter(const HmcMemory &mem, const std::string &name)
{
    return mem.stats().hasCounter(name)
               ? mem.stats().findCounter(name).value()
               : 0;
}

std::vector<Cycle>
streamReads(HmcMemory &mem, int n = 400)
{
    std::vector<Cycle> done;
    done.reserve(n);
    for (int i = 0; i < n; ++i)
        done.push_back(
            mem.read(Addr(i) * 256, 64, TrafficClass::Texture, Cycle(i)));
    return done;
}

TEST(FaultInjection, ZeroBerIsBitIdenticalToDefault)
{
    // The fault path behind fault_link_ber=0 must be a flag check:
    // completion times match a config that never mentions faults.
    HmcParams plain;
    HmcParams zeroed;
    zeroed.fault.linkBer = 0.0;
    zeroed.fault.vaultBer = 0.0;
    zeroed.fault.seed = 0xabcdef; // seed alone must change nothing

    HmcMemory a(plain), b(zeroed);
    EXPECT_EQ(streamReads(a), streamReads(b));
    EXPECT_EQ(counter(b, "crc_errors"), 0u);
    EXPECT_EQ(counter(b, "link_retries"), 0u);
    EXPECT_EQ(counter(b, "vault_retries"), 0u);
}

TEST(FaultInjection, LinkErrorsRetryAndSlowTheLink)
{
    HmcParams clean;
    HmcParams faulty;
    faulty.fault.linkBer = 0.05;

    HmcMemory a(clean), b(faulty);
    auto clean_done = streamReads(a);
    auto faulty_done = streamReads(b);

    EXPECT_GT(counter(b, "crc_errors"), 0u);
    EXPECT_GT(counter(b, "link_retries"), 0u);
    EXPECT_EQ(counter(a, "crc_errors"), 0u);

    // Retransmissions cost link time: the faulty stream finishes no
    // earlier anywhere and strictly later somewhere.
    ASSERT_EQ(clean_done.size(), faulty_done.size());
    bool slower_somewhere = false;
    for (size_t i = 0; i < clean_done.size(); ++i) {
        EXPECT_GE(faulty_done[i], clean_done[i]) << "read " << i;
        slower_somewhere |= faulty_done[i] > clean_done[i];
    }
    EXPECT_TRUE(slower_somewhere);
}

TEST(FaultInjection, SameSeedIsDeterministic)
{
    HmcParams p;
    p.fault.linkBer = 0.02;
    p.fault.vaultBer = 0.01;
    p.fault.seed = 42;

    HmcMemory a(p), b(p);
    EXPECT_EQ(streamReads(a), streamReads(b));
    EXPECT_EQ(counter(a, "crc_errors"), counter(b, "crc_errors"));
    EXPECT_EQ(counter(a, "link_retries"), counter(b, "link_retries"));
    EXPECT_EQ(counter(a, "vault_retries"), counter(b, "vault_retries"));
}

TEST(FaultInjection, DifferentSeedsDiverge)
{
    HmcParams p1, p2;
    p1.fault.linkBer = p2.fault.linkBer = 0.02;
    p1.fault.seed = 1;
    p2.fault.seed = 2;

    HmcMemory a(p1), b(p2);
    auto da = streamReads(a, 2000);
    auto db = streamReads(b, 2000);
    EXPECT_NE(da, db);
}

TEST(FaultInjection, VaultErrorsForceReissue)
{
    HmcParams p;
    p.fault.vaultBer = 0.05;
    HmcMemory mem(p);
    streamReads(mem, 1000);
    EXPECT_GT(counter(mem, "vault_retries"), 0u);
    EXPECT_EQ(counter(mem, "crc_errors"), 0u); // links were clean
}

TEST(FaultInjection, MaxRetriesBoundsTheWorstCase)
{
    // Even a link that corrupts every packet must terminate: after
    // maxReplays replays the packet is forced through and counted.
    HmcParams p;
    p.fault.linkBer = 1.0;
    p.maxReplays = 3;
    HmcMemory mem(p);
    Cycle done = mem.read(0x0, 64, TrafficClass::Texture, 0);
    EXPECT_GT(done, 0u);
    EXPECT_GT(counter(mem, "retry_aborts"), 0u);
}

TEST(FaultInjection, ObservedRetryRateTracksBer)
{
    HmcParams p;
    p.fault.linkBer = 0.1;
    HmcMemory mem(p);
    streamReads(mem, 3000);

    // Rate needs min_packets of evidence first.
    EXPECT_DOUBLE_EQ(mem.observedLinkRetryRate(0, u64(1) << 40), 0.0);
    double rate = mem.observedLinkRetryRate(0, 256);
    EXPECT_GT(rate, 0.05);
    EXPECT_LT(rate, 0.25);
}

TEST(FaultInjection, PackageDeadlineMissesAreCounted)
{
    HmcMemory mem(HmcParams{});
    PimRobustness robust(RobustnessParams{}, mem);
    auto timeouts = [&] {
        return robust.stats().findCounter("timeouts").value();
    };
    // Generous deadline: met, not counted.
    EXPECT_FALSE(robust.timedOut(
        100000, mem.hostToDevice(64, TrafficClass::PimPackage, 0)));
    EXPECT_EQ(timeouts(), 0u);
    // Impossible deadline: a missed request and a missed response
    // are each counted.
    EXPECT_TRUE(robust.timedOut(
        1, mem.hostToDevice(64, TrafficClass::PimPackage, 1000)));
    EXPECT_EQ(timeouts(), 1u);
    EXPECT_TRUE(robust.timedOut(
        1, mem.deviceToHost(64, TrafficClass::PimPackage, 2000)));
    EXPECT_EQ(timeouts(), 2u);
}

TEST(FaultInjection, BurstsAmplifyRetriesAtEqualTriggerRate)
{
    HmcParams single, burst;
    single.fault.linkBer = 0.01;
    burst.fault.linkBer = 0.01;
    burst.fault.burstLen = 8;

    HmcMemory a(single), b(burst);
    streamReads(a, 3000);
    streamReads(b, 3000);
    EXPECT_GT(counter(b, "crc_errors"), counter(a, "crc_errors"));
}

} // namespace
} // namespace texpim
