/**
 * @file
 * Property/fuzz layer over the delta/varint replay-stream codec plus
 * sim-level stream-equivalence checks:
 *
 *  - varint/zigzag primitives at every bucket boundary (0, 2^7, 2^14,
 *    2^32-1, 2^64-1), truncation and overflow rejection;
 *  - seeded synthetic TileRecords round-trip bit-for-bit, including
 *    empty tiles, decomposition sections and adversarial address
 *    patterns (unaligned, descending, u32-boundary);
 *  - every strict prefix of an encoded stream (a torn write) is
 *    rejected, corrupt headers are rejected, and random bit flips
 *    never crash the decoder;
 *  - the encoded stream — hash, byte count and decoded byte count —
 *    is invariant across gpu.render_threads, for every design;
 *  - the encoded Doom3 640x480 frame stays under its byte budget and
 *    over 3x smaller than the raw record arrays.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gpu/replay_codec.hh"
#include "scene/game_profiles.hh"
#include "sim/runner/experiment_runner.hh"

namespace texpim {
namespace {

// ---------------------------------------------------------------- varint

std::vector<u8>
encodeVarint(u64 v)
{
    std::vector<u8> out;
    codec::putVarint(out, v);
    return out;
}

TEST(VarintBoundaries, RoundTripAtEveryBucketEdge)
{
    struct Case
    {
        u64 value;
        size_t bytes;
    };
    const Case cases[] = {
        {0, 1},
        {1, 1},
        {0x7F, 1},                  // last 1-byte value
        {0x80, 2},                  // first 2-byte value (2^7)
        {0x3FFF, 2},                // last 2-byte value
        {0x4000, 3},                // 2^14
        {0x1F'FFFF, 3},
        {0x20'0000, 4},             // 2^21
        {0xFFFF'FFFFull, 5},        // 2^32 - 1
        {0x1'0000'0000ull, 5},      // 2^32
        {0x7FFF'FFFF'FFFF'FFFFull, 9},
        {0xFFFF'FFFF'FFFF'FFFFull, 10}, // 2^64 - 1
    };
    for (const Case &c : cases) {
        std::vector<u8> buf = encodeVarint(c.value);
        EXPECT_EQ(buf.size(), c.bytes) << c.value;
        codec::Reader rd(buf.data(), buf.size());
        EXPECT_EQ(rd.varint(), c.value);
        EXPECT_TRUE(rd.ok);
        EXPECT_EQ(rd.p, rd.end) << "bytes left after " << c.value;
    }
}

TEST(VarintBoundaries, TruncatedContinuationIsRejected)
{
    for (u64 v : {u64(0x80), u64(0x4000), u64(0xFFFF'FFFF'FFFF'FFFFull)}) {
        std::vector<u8> buf = encodeVarint(v);
        buf.pop_back(); // every remaining byte has the continue bit set
        codec::Reader rd(buf.data(), buf.size());
        rd.varint();
        EXPECT_FALSE(rd.ok) << v;
    }
    codec::Reader empty(nullptr, 0);
    empty.varint();
    EXPECT_FALSE(empty.ok);
}

TEST(VarintBoundaries, OverflowingEncodingsAreRejected)
{
    // 2^64-1 encodes as 0xFF x9 then 0x01; any larger final byte (or a
    // continued 10th byte) no longer fits in u64.
    std::vector<u8> max = encodeVarint(0xFFFF'FFFF'FFFF'FFFFull);
    ASSERT_EQ(max.size(), 10u);
    ASSERT_EQ(max.back(), 0x01);

    std::vector<u8> overflow = max;
    overflow.back() = 0x02;
    codec::Reader rd1(overflow.data(), overflow.size());
    rd1.varint();
    EXPECT_FALSE(rd1.ok);

    std::vector<u8> continued(10, 0x80);
    continued.push_back(0x01); // 11-byte varint: > 70 payload bits
    codec::Reader rd2(continued.data(), continued.size());
    rd2.varint();
    EXPECT_FALSE(rd2.ok);
}

TEST(Zigzag, RoundTripsExtremes)
{
    for (i64 v : {i64(0), i64(1), i64(-1), i64(63), i64(-64),
                  i64(0x7FFF'FFFF'FFFF'FFFFll),
                  i64(-0x7FFF'FFFF'FFFF'FFFFll - 1)}) {
        EXPECT_EQ(codec::unzigzag(codec::zigzag(v)), v) << v;
    }
    // Small magnitudes map to small payloads (the size win the codec
    // depends on).
    EXPECT_EQ(codec::zigzag(0), 0u);
    EXPECT_EQ(codec::zigzag(-1), 1u);
    EXPECT_EQ(codec::zigzag(1), 2u);
}

// ----------------------------------------------------------- round trip

ColorF
randColor(Rng &rng)
{
    return ColorF{float(rng.uniform()), float(rng.uniform()),
                  float(rng.uniform()), float(rng.uniform())};
}

/**
 * A synthetic TileRecord honoring the construction invariants the
 * encoder asserts (sequential sample indices and stream offsets) while
 * stressing the predictors: unaligned and descending addresses, empty
 * block lists, mixed decomposition sections, u32/varint boundary
 * values.
 */
TileRecord
makeSyntheticTile(u64 seed, bool with_decomp)
{
    Rng rng(seed);
    TileRecord rec;
    rec.hierZSkipped = rng.below(1000);

    u32 next_sample = 0;
    unsigned n_frags = 20 + unsigned(rng.below(40));
    for (unsigned i = 0; i < n_frags; ++i) {
        FragRecord fr;
        fr.x = u16(rng.below(0x10000));
        fr.y = u16(rng.below(0x10000));
        bool shaded = rng.chance(0.8);
        bool detail = shaded && rng.chance(0.4);
        fr.flags = (shaded ? FragRecord::kShaded : 0) |
                   (detail ? FragRecord::kHasDetail : 0);
        if (shaded) {
            fr.lodAniso = u8(1u << rng.below(5));
            fr.angle = float(rng.uniform(-1.6, 1.6));
            fr.diffuse = float(rng.uniform());
            fr.sample = next_sample;
            next_sample += detail ? 2 : 1;
        }
        rec.frags.push_back(fr);
    }

    ReplayStream &s = rec.stream;
    for (u32 i = 0; i < next_sample; ++i) {
        TexSampleRec r;
        // Decomposed samples carry no color: replay recombines their
        // parents.
        if (!with_decomp)
            r.color = randColor(rng);
        r.texels = u32(rng.below(256));
        r.filterOps = r.texels + u32(rng.below(32));
        r.anisoRatio = u32(1u << rng.below(5));
        r.blockOff = u32(s.blocks.size());
        r.blockCount = u32(rng.below(8)); // 0 included
        for (u32 b = 0; b < r.blockCount; ++b) {
            // Adversarial mix: boundary values, unaligned, descending.
            static const Addr edges[] = {0, 0x7F, 0x80, 0x3FFF, 0x4000,
                                         0xFFFF'FFFFull, 0x1'0000'0000ull};
            Addr a = rng.chance(0.3)
                         ? edges[rng.below(std::size(edges))]
                         : Addr(rng.below(1ull << 40));
            s.blocks.push_back(a);
        }
        r.route = Addr(rng.below(1ull << 40)) | 1; // odd: pins shift = 0
        r.parentOff = u32(s.parents.size());
        // Streams are homogeneous in production — a texture path emits
        // either conventional or decomposed records, never a mix — and
        // the codec's offset reconstruction relies on that shape.
        if (with_decomp) {
            r.hostFilterOps = 4 + u32(rng.below(3)) * 2;
            r.numLevels = u8(1 + rng.below(2));
            r.fx[0] = float(rng.uniform());
            r.fx[1] = float(rng.uniform());
            r.fy[0] = float(rng.uniform());
            r.fy[1] = float(rng.uniform());
            r.levelWeight = float(rng.uniform());
            r.parentCount = r.numLevels * 4;
            for (u32 p = 0; p < r.parentCount; ++p) {
                ParentRec pr;
                pr.addr = Addr(rng.below(1ull << 40));
                pr.value = randColor(rng);
                pr.childOff = u32(s.childBlocks.size());
                for (u32 c = 0; c < r.anisoRatio; ++c)
                    s.childBlocks.push_back(Addr(rng.below(1ull << 40)));
                s.parents.push_back(pr);
            }
        }
        s.samples.push_back(r);
    }
    return rec;
}

::testing::AssertionResult
colorBitsEqual(const ColorF &a, const ColorF &b)
{
    if (std::bit_cast<u32>(a.r) == std::bit_cast<u32>(b.r) &&
        std::bit_cast<u32>(a.g) == std::bit_cast<u32>(b.g) &&
        std::bit_cast<u32>(a.b) == std::bit_cast<u32>(b.b) &&
        std::bit_cast<u32>(a.a) == std::bit_cast<u32>(b.a))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "color bits differ";
}

void
expectTileEqual(const TileRecord &got, const TileRecord &want)
{
    EXPECT_EQ(got.hierZSkipped, want.hierZSkipped);
    ASSERT_EQ(got.frags.size(), want.frags.size());
    for (size_t i = 0; i < want.frags.size(); ++i) {
        const FragRecord &g = got.frags[i], &w = want.frags[i];
        EXPECT_EQ(g.x, w.x) << i;
        EXPECT_EQ(g.y, w.y) << i;
        EXPECT_EQ(g.flags, w.flags) << i;
        if ((w.flags & FragRecord::kShaded) != 0) {
            EXPECT_EQ(g.lodAniso, w.lodAniso) << i;
            EXPECT_EQ(std::bit_cast<u32>(g.angle),
                      std::bit_cast<u32>(w.angle))
                << i;
            EXPECT_EQ(std::bit_cast<u32>(g.diffuse),
                      std::bit_cast<u32>(w.diffuse))
                << i;
            EXPECT_EQ(g.sample, w.sample) << i;
        }
    }
    const ReplayStream &gs = got.stream, &ws = want.stream;
    ASSERT_EQ(gs.samples.size(), ws.samples.size());
    EXPECT_EQ(gs.blocks, ws.blocks);
    EXPECT_EQ(gs.childBlocks, ws.childBlocks);
    for (size_t i = 0; i < ws.samples.size(); ++i) {
        const TexSampleRec &g = gs.samples[i], &w = ws.samples[i];
        SCOPED_TRACE("sample " + std::to_string(i));
        EXPECT_TRUE(colorBitsEqual(g.color, w.color));
        EXPECT_EQ(g.route, w.route);
        EXPECT_EQ(g.blockOff, w.blockOff);
        EXPECT_EQ(g.blockCount, w.blockCount);
        EXPECT_EQ(g.texels, w.texels);
        EXPECT_EQ(g.filterOps, w.filterOps);
        EXPECT_EQ(g.anisoRatio, w.anisoRatio);
        EXPECT_EQ(g.parentOff, w.parentOff);
        EXPECT_EQ(g.parentCount, w.parentCount);
        EXPECT_EQ(g.hostFilterOps, w.hostFilterOps);
        EXPECT_EQ(g.numLevels, w.numLevels);
        for (int l = 0; l < 2; ++l) {
            EXPECT_EQ(std::bit_cast<u32>(g.fx[l]),
                      std::bit_cast<u32>(w.fx[l]));
            EXPECT_EQ(std::bit_cast<u32>(g.fy[l]),
                      std::bit_cast<u32>(w.fy[l]));
        }
        EXPECT_EQ(std::bit_cast<u32>(g.levelWeight),
                  std::bit_cast<u32>(w.levelWeight));
    }
    ASSERT_EQ(gs.parents.size(), ws.parents.size());
    for (size_t i = 0; i < ws.parents.size(); ++i) {
        const ParentRec &g = gs.parents[i], &w = ws.parents[i];
        SCOPED_TRACE("parent " + std::to_string(i));
        EXPECT_EQ(g.addr, w.addr);
        EXPECT_TRUE(colorBitsEqual(g.value, w.value));
        EXPECT_EQ(g.childOff, w.childOff);
    }
}

TEST(CodecRoundTrip, SeededSyntheticStreamsAreLossless)
{
    for (u64 seed = 1; seed <= 6; ++seed) {
        for (bool decomp : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (decomp ? " decomp" : " conv"));
            TileRecord tile = makeSyntheticTile(seed, decomp);
            std::vector<u8> buf;
            encodeTileRecord(tile, buf);
            TileRecord back;
            std::string err;
            ASSERT_TRUE(decodeTileRecord(buf.data(), buf.size(), back,
                                         &err))
                << err;
            expectTileEqual(back, tile);
            EXPECT_EQ(back.decodedBytes, tile.decodedSizeBytes());
        }
    }
}

TEST(CodecRoundTrip, EmptyTileRoundTrips)
{
    TileRecord tile;
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);
    TileRecord back;
    ASSERT_TRUE(decodeTileRecord(buf.data(), buf.size(), back, nullptr));
    EXPECT_TRUE(back.frags.empty());
    EXPECT_TRUE(back.stream.samples.empty());
    EXPECT_EQ(back.hierZSkipped, 0u);
}

TEST(CodecRoundTrip, EncodingIsDeterministic)
{
    TileRecord tile = makeSyntheticTile(42, true);
    std::vector<u8> a, b;
    encodeTileRecord(tile, a);
    encodeTileRecord(tile, b);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------------ rejection

TEST(CodecRejection, EveryTruncationIsRejected)
{
    TileRecord tile = makeSyntheticTile(7, true);
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);
    TileRecord scratch;
    for (size_t len = 0; len < buf.size(); ++len) {
        EXPECT_FALSE(decodeTileRecord(buf.data(), len, scratch, nullptr))
            << "torn stream of " << len << "/" << buf.size()
            << " bytes decoded successfully";
    }
    // ... and the untruncated stream still decodes.
    EXPECT_TRUE(decodeTileRecord(buf.data(), buf.size(), scratch, nullptr));
}

TEST(CodecRejection, TrailingBytesAreRejected)
{
    TileRecord tile = makeSyntheticTile(9, false);
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);
    buf.push_back(0x00);
    TileRecord scratch;
    std::string err;
    EXPECT_FALSE(decodeTileRecord(buf.data(), buf.size(), scratch, &err));
    EXPECT_EQ(err, "trailing bytes after stream");
}

TEST(CodecRejection, CorruptMagicAndVersionAreRejected)
{
    TileRecord tile = makeSyntheticTile(11, true);
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);
    TileRecord scratch;
    // Bytes 0..4 are the magic and version: any change must fail.
    for (size_t pos = 0; pos < 5; ++pos) {
        std::vector<u8> bad = buf;
        bad[pos] ^= 0xFF;
        EXPECT_FALSE(
            decodeTileRecord(bad.data(), bad.size(), scratch, nullptr))
            << "byte " << pos;
    }
    // Shift byte >= 64 is structurally invalid.
    std::vector<u8> bad_shift = buf;
    bad_shift[5] = 64;
    std::string err;
    EXPECT_FALSE(decodeTileRecord(bad_shift.data(), bad_shift.size(),
                                  scratch, &err));
    EXPECT_EQ(err, "bad address shift");
}

TEST(CodecRejection, RandomBitFlipsNeverCrashTheDecoder)
{
    // Fuzz smoke: a flipped payload bit may still decode (float bits,
    // colors) — the contract is no UB, no unbounded allocation, and a
    // clean false on structural damage. The sanitizer jobs give this
    // test its teeth.
    TileRecord tile = makeSyntheticTile(13, true);
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);
    Rng rng(99);
    TileRecord scratch;
    for (unsigned i = 0; i < 300; ++i) {
        std::vector<u8> bad = buf;
        size_t pos = size_t(rng.below(bad.size()));
        bad[pos] ^= u8(1u << rng.below(8));
        decodeTileRecord(bad.data(), bad.size(), scratch, nullptr);
    }
    // Untouched buffer still round-trips after the fuzz loop.
    EXPECT_TRUE(decodeTileRecord(buf.data(), buf.size(), scratch, nullptr));
}

TEST(CodecRejection, HostileHeaderCountsAreBounded)
{
    // A forged header promising 2^40 fragments must be rejected before
    // any allocation of that size (count > buffer size check).
    std::vector<u8> buf = {'T', 'X', 'R', 'P', 2, 0};
    codec::putVarint(buf, 0);               // hierZSkipped
    codec::putVarint(buf, 1ull << 40);      // n_frags
    for (int i = 0; i < 4; ++i)
        codec::putVarint(buf, 0);
    TileRecord scratch;
    std::string err;
    EXPECT_FALSE(decodeTileRecord(buf.data(), buf.size(), scratch, &err));
    EXPECT_EQ(err, "count exceeds buffer");
}

TEST(CodecRejection, ChildListsAreBoundedByHeaderCount)
{
    // Each parent of a decomposed sample has anisoRatio children, so
    // parentCount x anisoRatio children must fit the header's child
    // count. Forge the header one child short: the last parent's list
    // overruns it and decoding must fail cleanly.
    TileRecord tile = makeSyntheticTile(17, true);
    ASSERT_FALSE(tile.stream.childBlocks.empty());
    std::vector<u8> buf;
    encodeTileRecord(tile, buf);

    // Header: magic, version, shift, then six varints; the child count
    // is the last of them.
    codec::Reader rd(buf.data() + 6, buf.size() - 6);
    for (int i = 0; i < 5; ++i)
        rd.varint();
    size_t count_at = size_t(rd.p - buf.data());
    u64 n_children = rd.varint();
    ASSERT_TRUE(rd.ok);
    ASSERT_EQ(n_children, tile.stream.childBlocks.size());
    size_t body_at = size_t(rd.p - buf.data());

    std::vector<u8> bad(buf.begin(), buf.begin() + count_at);
    codec::putVarint(bad, n_children - 1);
    bad.insert(bad.end(), buf.begin() + body_at, buf.end());
    TileRecord scratch;
    std::string err;
    EXPECT_FALSE(decodeTileRecord(bad.data(), bad.size(), scratch, &err));
    EXPECT_EQ(err, "child list overruns header count");
}

// ------------------------------------------- sim-level stream equality

ExperimentSpec
equivalenceSpec(Design d, unsigned threads)
{
    ExperimentSpec spec;
    spec.config.design = d;
    spec.config.gpu.schedule = GpuParams::Schedule::RoundRobin;
    spec.config.gpu.renderThreads = threads;
    spec.workload = Workload{Game::Doom3, 160, 120};
    spec.frame = 3;
    spec.seed = 0x7e01d;
    spec.maxAniso = 0;
    return spec;
}

ExperimentResult
runSpec(const ExperimentSpec &spec)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    return ExperimentRunner::runOne(spec);
}

TEST(StreamEquivalence, EncodedStreamInvariantAcrossRenderThreads)
{
    // The encoded bytes are a pure function of the (stable-ordered)
    // record arrays, so their FNV hash and sizes must not move with
    // the worker count — the property that makes record_bytes a
    // meaningful CI metric at any thread setting. threads=4 races the
    // quad batches of the parallel phase 1 (the TSan configuration of
    // this suite).
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        ExperimentResult ref = runSpec(equivalenceSpec(d, 1));
        EXPECT_GT(ref.result.frame.recordBytes, 0u);
        EXPECT_GT(ref.result.frame.recordStreamHash, 0u);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(designName(d)) + " threads=" +
                         std::to_string(threads));
            ExperimentResult r = runSpec(equivalenceSpec(d, threads));
            EXPECT_EQ(r.result.frame.recordStreamHash,
                      ref.result.frame.recordStreamHash);
            EXPECT_EQ(r.result.frame.recordBytes,
                      ref.result.frame.recordBytes);
            EXPECT_EQ(r.result.frame.recordBytesDecoded,
                      ref.result.frame.recordBytesDecoded);
            EXPECT_EQ(r.imageFnv1a, ref.imageFnv1a);
        }
    }
}

TEST(StreamEquivalence, EncodedRecordFitsBudgetAt640x480)
{
    // The byte budget phase 1 hands to phase 2 for the Doom3 640x480
    // frame 3 Baseline scene (measured 18,256,378 encoded bytes;
    // 81,001,472 before the codec). Record bytes are a pure function
    // of the scene, so this fails deterministically on a codec or
    // batching regression, however noisy the host. Raise the budget
    // only with a DESIGN.md rationale.
    constexpr u64 kBudget = 20'250'000;
    ExperimentSpec spec;
    spec.config.design = Design::Baseline;
    spec.config.gpu.renderThreads = 4;
    spec.workload = Workload{Game::Doom3, 640, 480};
    spec.frame = 3;
    spec.seed = 0x7e01d;
    spec.maxAniso = defaultMaxAniso(640);
    ExperimentResult r = runSpec(spec);
    const FrameStats &frame = r.result.frame;
    EXPECT_GT(frame.recordBytes, 0u);
    EXPECT_LE(frame.recordBytes, kBudget);
    // The raw record arrays must stay over 3x the encoded stream, so a
    // codec that stops compressing fails too.
    EXPECT_GT(frame.recordBytesDecoded, 3 * frame.recordBytes);
}

} // namespace
} // namespace texpim
