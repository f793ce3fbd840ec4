/**
 * @file
 * ParentValueStore against a reference model of A-TFIM's parent-value
 * semantics: a map from texel address to value where a reuse hit reads
 * the stored value (storing the fresh one if none is set) and a refill
 * erases every other texel of the line, then stores the fresh value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "pim/parent_value_store.hh"

namespace texpim {
namespace {

constexpr u64 kLineBytes = 64;
constexpr u64 kTexelsPerLine = kLineBytes / kBytesPerTexel;

/** The texel-keyed map A-TFIM replay kept before the line store. */
class ReferenceStore
{
  public:
    const ColorF *
    reuse(Addr addr, const ColorF &fresh)
    {
        auto it = by_texel_.find(addr);
        if (it != by_texel_.end())
            return &it->second;
        by_texel_[addr] = fresh;
        return nullptr;
    }

    void
    refill(Addr addr, const ColorF &fresh)
    {
        Addr line = addr & ~(kLineBytes - 1);
        for (Addr a = line; a < line + kLineBytes; a += kBytesPerTexel)
            if (a != addr)
                by_texel_.erase(a);
        by_texel_[addr] = fresh;
    }

    const ColorF *
    find(Addr addr) const
    {
        auto it = by_texel_.find(addr);
        return it == by_texel_.end() ? nullptr : &it->second;
    }

  private:
    std::unordered_map<Addr, ColorF> by_texel_;
};

bool
sameBits(const ColorF &a, const ColorF &b)
{
    return std::memcmp(&a, &b, sizeof(ColorF)) == 0;
}

/** Store and model agree on presence and value bits for every texel of
 *  the line holding `addr`. */
void
expectLineAgrees(const ParentValueStore &store, const ReferenceStore &ref,
                 Addr addr)
{
    Addr line = addr & ~(kLineBytes - 1);
    for (Addr a = line; a < line + kLineBytes; a += kBytesPerTexel) {
        const ColorF *got = store.find(a);
        const ColorF *want = ref.find(a);
        ASSERT_EQ(got != nullptr, want != nullptr) << "texel " << a;
        if (want != nullptr) {
            ASSERT_TRUE(sameBits(*got, *want)) << "texel " << a;
        }
    }
}

ColorF
randomColor(Rng &rng)
{
    return {float(rng.uniform()), float(rng.uniform()),
            float(rng.uniform()), float(rng.uniform())};
}

TEST(ParentValueStore, RefillKeepsOnlyTheRequestingTexel)
{
    ParentValueStore store(kLineBytes);
    const Addr line = 0x1000'0040;
    const Addr next = line + kLineBytes;
    for (unsigned t = 0; t < kTexelsPerLine; ++t) {
        EXPECT_EQ(store.reuse(line + t * kBytesPerTexel,
                              ColorF(float(t), 0, 0)),
                  nullptr);
        EXPECT_EQ(store.reuse(next + t * kBytesPerTexel,
                              ColorF(0, float(t), 0)),
                  nullptr);
    }

    const Addr own = line + 3 * kBytesPerTexel;
    store.refill(own, ColorF(0.5f, 0.25f, 0.125f));

    for (unsigned t = 0; t < kTexelsPerLine; ++t) {
        Addr a = line + t * kBytesPerTexel;
        if (t == 3) {
            ASSERT_NE(store.find(a), nullptr);
            EXPECT_TRUE(sameBits(*store.find(a),
                                 ColorF(0.5f, 0.25f, 0.125f)));
        } else {
            EXPECT_EQ(store.find(a), nullptr) << "texel " << t;
        }
        const ColorF *n = store.find(next + t * kBytesPerTexel);
        ASSERT_NE(n, nullptr) << "neighbour texel " << t;
        EXPECT_TRUE(sameBits(*n, ColorF(0, float(t), 0)));
    }

    // A reuse hit on the kept texel reads the refilled value; on a
    // dropped one it stores the fresh value.
    const ColorF *kept = store.reuse(own, ColorF(9, 9, 9));
    ASSERT_NE(kept, nullptr);
    EXPECT_TRUE(sameBits(*kept, ColorF(0.5f, 0.25f, 0.125f)));
    EXPECT_EQ(store.reuse(line, ColorF(7, 7, 7)), nullptr);
    ASSERT_NE(store.find(line), nullptr);
    EXPECT_TRUE(sameBits(*store.find(line), ColorF(7, 7, 7)));
    EXPECT_EQ(store.lines(), 2u);
}

TEST(ParentValueStore, MatchesReferenceModelAcrossGrowth)
{
    ParentValueStore store(kLineBytes);
    ReferenceStore ref;
    const u64 initial_capacity = store.capacity();

    // Lines of a few textures far apart in the address space, so line
    // numbers share low bits and the probe sequences collide.
    constexpr u64 kLines = 6000;
    std::vector<Addr> lines;
    for (u64 i = 0; i < kLines; ++i)
        lines.push_back(Addr(0x1000'0000) + (i % 4) * (Addr(1) << 32) +
                        (i / 4) * kLineBytes);

    Rng rng(0x5eed'1234);
    std::unordered_set<Addr> touched;
    // Early ops draw from a small prefix of the lines so values get
    // reused and refilled; the window widens until every line is live.
    constexpr u64 kOps = 60000;
    for (u64 op = 0; op < kOps; ++op) {
        u64 window = std::max<u64>(64, kLines * (op + 1) / (kOps / 2));
        Addr addr = lines[rng.below(std::min(window, kLines))] +
                    rng.below(kTexelsPerLine) * kBytesPerTexel;
        ColorF fresh = randomColor(rng);
        if (rng.chance(0.25)) {
            store.refill(addr, fresh);
            ref.refill(addr, fresh);
        } else {
            const ColorF *got = store.reuse(addr, fresh);
            const ColorF *want = ref.reuse(addr, fresh);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (want != nullptr) {
                ASSERT_TRUE(sameBits(*got, *want)) << "op " << op;
            }
        }
        touched.insert(addr & ~(kLineBytes - 1));
        expectLineAgrees(store, ref, addr);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "op " << op;
    }

    // Every line again, after the last growth moved every entry.
    for (Addr line : lines)
        expectLineAgrees(store, ref, line);
    EXPECT_EQ(store.lines(), touched.size());
    EXPECT_GE(store.capacity(), 8 * initial_capacity);
    EXPECT_LE(2 * store.lines(), store.capacity());
}

TEST(ParentValueStore, FindNeverInserts)
{
    ParentValueStore store(kLineBytes);
    EXPECT_EQ(store.find(0x2000), nullptr);
    EXPECT_EQ(store.lines(), 0u);
}

TEST(ParentValueStoreDeathTest, RejectsMisalignedParents)
{
    ParentValueStore store(kLineBytes);
    EXPECT_DEATH((void)store.reuse(0x2002, ColorF()), "texel-aligned");
}

TEST(ParentValueStoreDeathTest, RejectsLinesWiderThanTheMask)
{
    EXPECT_DEATH({ ParentValueStore s(65 * 4); }, "power of two");
    EXPECT_DEATH({ ParentValueStore s(128 * kBytesPerTexel); },
                 "64-bit valid mask");
}

} // namespace
} // namespace texpim
