#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/gddr5.hh"

namespace texpim {
namespace {

Gddr5Params
params()
{
    Gddr5Params p;
    p.channels = 4;
    p.banksPerChannel = 4;
    p.totalBandwidthGBs = 64.0; // 16 B/cycle per channel
    p.commandLatency = 10;
    return p;
}

TEST(Gddr5, SingleReadLatencyIsPlausible)
{
    Gddr5Memory mem(params());
    Cycle done = mem.read(0x1000, 64, TrafficClass::Texture, 100);
    // command latency + tRCD + tCL + burst + bus(64B/16Bpc = 4cyc)
    EXPECT_GT(done, 100u + 10);
    EXPECT_LT(done, 100u + 200);
}

TEST(Gddr5, TrafficAccountedByClass)
{
    Gddr5Memory mem(params());
    mem.read(0x0, 64, TrafficClass::Texture, 0);
    mem.read(0x40, 64, TrafficClass::Texture, 0);
    mem.write(0x80, 32, TrafficClass::ZTest, 0);
    EXPECT_EQ(mem.offChipTraffic().bytes(TrafficClass::Texture), 128u);
    EXPECT_EQ(mem.offChipTraffic().bytes(TrafficClass::ZTest), 32u);
    EXPECT_EQ(mem.offChipTraffic().totalBytes(), 160u);
}

TEST(Gddr5, StreamingReadsApproachPeakBandwidth)
{
    Gddr5Memory mem(params());
    // Stream 1 MiB of sequential 256 B reads issued at time 0.
    const u64 total = 1 << 20;
    Cycle last = 0;
    for (Addr a = 0; a < total; a += 256)
        last = std::max(last, mem.read(a, 256, TrafficClass::Texture, 0));
    double achieved = double(total) / double(last);
    double peak = mem.peakOffChipBytesPerCycle();
    // Within 2x of peak (row misses and command latency eat some).
    EXPECT_GT(achieved, peak * 0.5);
    EXPECT_LE(achieved, peak * 1.01);
}

TEST(Gddr5, SequentialSameRowProducesRowHits)
{
    Gddr5Memory mem(params());
    Cycle t = 0;
    for (Addr a = 0; a < 256; a += 64)
        t = mem.read(a, 64, TrafficClass::Texture, t);
    // 4 reads inside one 256 B granule: same channel, same row.
    EXPECT_GE(mem.stats().findCounter("row_hits").value(), 3u);
}

TEST(Gddr5, LaterIssueTimesDontCompleteEarlier)
{
    Gddr5Memory mem(params());
    Cycle d1 = mem.read(0x0, 64, TrafficClass::Texture, 0);
    Cycle d2 = mem.read(0x0, 64, TrafficClass::Texture, d1 + 100);
    EXPECT_GT(d2, d1);
}

TEST(Gddr5, ResetStatsClearsTraffic)
{
    Gddr5Memory mem(params());
    mem.read(0x0, 64, TrafficClass::Texture, 0);
    mem.resetStats();
    EXPECT_EQ(mem.offChipTraffic().totalBytes(), 0u);
    EXPECT_EQ(mem.stats().findCounter("reads").value(), 0u);
}

TEST(Gddr5, PerClassLatencyKeysOnlyForClassesWithTraffic)
{
    // latency_<class> averages register on a class's first access, so
    // a Texture-only run exports latency_texture and no other class.
    Gddr5Memory mem(params());
    for (Addr a = 0; a < 8 * 64; a += 64)
        mem.read(a, 64, TrafficClass::Texture, a);
    std::vector<std::string> per_class;
    for (const auto &kv : mem.stats().averages())
        if (kv.first.rfind("latency_", 0) == 0)
            per_class.push_back(kv.first);
    EXPECT_EQ(per_class, std::vector<std::string>{"latency_texture"});
    EXPECT_EQ(mem.stats().findAverage("latency_texture").count(), 8u);
    // A reset keeps the key (and the held pointer) alive.
    mem.resetStats();
    mem.read(0x1000, 64, TrafficClass::Texture, 0);
    EXPECT_EQ(mem.stats().findAverage("latency_texture").count(), 1u);
}

TEST(Gddr5Death, ZeroByteAccessPanics)
{
    Gddr5Memory mem(params());
    EXPECT_DEATH({ mem.read(0, 0, TrafficClass::Texture, 0); },
                 "zero-byte");
}

TEST(TrafficMeter, TextureBytesIncludesPimPackages)
{
    TrafficMeter m;
    m.add(TrafficClass::Texture, 100);
    m.add(TrafficClass::PimPackage, 50);
    m.add(TrafficClass::ZTest, 25);
    EXPECT_EQ(m.textureBytes(), 150u);
    EXPECT_EQ(m.totalBytes(), 175u);
}

} // namespace
} // namespace texpim
