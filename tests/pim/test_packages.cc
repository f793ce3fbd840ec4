#include <gtest/gtest.h>

#include "pim/packages.hh"

namespace texpim {
namespace {

TEST(Packages, StfimRequestIsFourTimesReadRequest)
{
    PimPacketParams p;
    // §VI: "the size of an offloading package [is] 4X the size of a
    // normal memory read request package".
    EXPECT_EQ(p.stfimRequestBytes(), 4u * p.readRequestBytes);
    EXPECT_EQ(p.stfimRequestBytes(), 64u);
}

TEST(Packages, StfimResponseMatchesReadResponse)
{
    PimPacketParams p;
    EXPECT_EQ(p.stfimResponseBytes(),
              p.responseHeaderBytes + p.texResultBytes);
}

TEST(Packages, AtfimRequestGrowsPerParent)
{
    PimPacketParams p;
    u64 one = p.atfimRequestBytes(1);
    u64 eight = p.atfimRequestBytes(8);
    EXPECT_EQ(eight - one, 7u * p.parentOffsetBytes);
    // Compaction: 8 parents cost far less than 8 full requests.
    EXPECT_LT(eight, 8u * p.stfimRequestBytes());
}

TEST(Packages, AtfimResponseGrowsPerParent)
{
    PimPacketParams p;
    EXPECT_EQ(p.atfimResponseBytes(4) - p.atfimResponseBytes(1),
              3u * p.parentValueBytes);
}

} // namespace
} // namespace texpim
