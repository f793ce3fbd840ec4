#include "gpu/replay_codec.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace texpim {

namespace {

using codec::putVarint;
using codec::Reader;
using codec::unzigzag;
using codec::zigzag;

constexpr u8 kMagic[4] = {'T', 'X', 'R', 'P'};
constexpr u8 kVersion = 2;

// Sample flag bits.
constexpr u8 kSampleDecomp = 1; //!< decomposition section present

/** The color a decomposed sample decodes with (it stores none). */
constexpr ColorF kUnsetColor{};

/**
 * XOR-predicted float channel: floats are stored as varints of their
 * raw bits XORed with the previous value seen in the same channel.
 * Spatially adjacent samples have correlated values, so the XOR zeroes
 * the sign/exponent/high-mantissa bits and the varint stays short; a
 * constant channel (e.g. opaque alpha) costs one byte. Bit-exact by
 * construction — the prediction never rounds.
 */
// texpim-lint: caller-owned codec state local to one
// encode/decode call
struct FloatChannel
{
    u32 prev = 0;

    void
    put(std::vector<u8> &out, float f)
    {
        u32 b;
        std::memcpy(&b, &f, sizeof(b));
        putVarint(out, b ^ prev);
        prev = b;
    }

    float
    get(Reader &rd)
    {
        u32 b = u32(rd.varint()) ^ prev;
        prev = b;
        float f;
        std::memcpy(&f, &b, sizeof(f));
        return f;
    }
};

bool
fail(std::string *err, const char *what)
{
    if (err != nullptr)
        *err = what;
    return false;
}

u32
f32Bits(float f)
{
    u32 b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

/** True when the sample carries any A-TFIM decomposition state beyond
 *  the TexSampleRec defaults (bit-compared so -0.0f is preserved). */
bool
hasDecomposition(const TexSampleRec &r)
{
    return r.parentCount > 0 || r.hostFilterOps != 0 || r.numLevels != 1 ||
           f32Bits(r.fx[0]) != 0 || f32Bits(r.fx[1]) != 0 ||
           f32Bits(r.fy[0]) != 0 || f32Bits(r.fy[1]) != 0 ||
           f32Bits(r.levelWeight) != 0;
}

/** The per-stream predictor state, symmetric between the encoder and
 *  the decoder (both sides step it through identical sequences). */
struct PredictorState
{
    // Fragment section.
    i64 px = 0, py = 0;
    FloatChannel angle, diffuse;

    // Sample section.
    i64 prevRoute = 0, prevBlock = 0, prevParent = 0, prevChild = 0;
    FloatChannel color[4];
    FloatChannel fx0, fx1, fy0, fy1, lw;
    FloatChannel parentColor[4];
};

} // namespace

void
encodeTileRecord(const TileRecord &rec, std::vector<u8> &out)
{
    const ReplayStream &s = rec.stream;
    out.clear();
    // Typical encoded size is a quarter of the decoded arrays; one
    // reserve avoids the doubling-growth copies on the hot path.
    out.reserve(size_t(rec.decodedSizeBytes() / 3) + 64);

    // Coalesced blocks are cache-line / fetch-granule aligned, so
    // their low bits are always zero; encoding block and child-block
    // addresses in a shifted domain drops those bits from every delta
    // (the common adjacent-line delta becomes 1). The shift is derived
    // from the data (trailing zeros of the OR of all addresses), so
    // round-tripping is exact for arbitrary streams.
    Addr align_or = 0;
    for (Addr b : s.blocks)
        align_or |= b;
    for (Addr c : s.childBlocks)
        align_or |= c;
    unsigned shift =
        align_or == 0 ? 0u : unsigned(std::countr_zero(align_or));

    out.insert(out.end(), kMagic, kMagic + 4);
    out.push_back(kVersion);
    out.push_back(u8(shift));
    putVarint(out, rec.hierZSkipped);
    putVarint(out, rec.frags.size());
    putVarint(out, s.samples.size());
    putVarint(out, s.blocks.size());
    putVarint(out, s.parents.size());
    putVarint(out, s.childBlocks.size());

    PredictorState ps;

    // --- Fragments: tile raster order makes coordinate deltas tiny;
    // sample indices are sequential appends and are reconstructed.
    u32 next_sample = 0;
    for (const FragRecord &fr : rec.frags) {
        putVarint(out, zigzag(i64(fr.x) - ps.px));
        putVarint(out, zigzag(i64(fr.y) - ps.py));
        ps.px = i64(fr.x);
        ps.py = i64(fr.y);
        out.push_back(fr.flags);
        if ((fr.flags & FragRecord::kShaded) != 0) {
            TEXPIM_ASSERT(fr.sample == next_sample,
                          "codec requires sequential FragRecord::sample "
                          "indices (got ", fr.sample, ", expected ",
                          next_sample, ")");
            out.push_back(fr.lodAniso);
            ps.angle.put(out, fr.angle);
            ps.diffuse.put(out, fr.diffuse);
            next_sample +=
                1 + (((fr.flags & FragRecord::kHasDetail) != 0) ? 1 : 0);
        }
    }

    // --- Samples. Predictor state spans the whole section: consecutive
    // samples of a tile touch neighboring texels of the same levels,
    // so address deltas and float-bit XORs stay small.
    u32 bo = 0, po = 0, co = 0;
    for (const TexSampleRec &r : s.samples) {
        TEXPIM_ASSERT(r.blockOff == bo && r.parentOff == po,
                      "codec requires sequential stream offsets");
        bool decomp = hasDecomposition(r);
        out.push_back(decomp ? kSampleDecomp : 0);
        // A decomposed sample's color is its parents' combine, which
        // replay evaluates itself, so only conventional samples store
        // one.
        TEXPIM_ASSERT(!decomp || std::memcmp(&r.color, &kUnsetColor,
                                             sizeof(ColorF)) == 0,
                      "codec drops a decomposed sample's color; it must "
                      "be unset");
        if (!decomp) {
            ps.color[0].put(out, r.color.r);
            ps.color[1].put(out, r.color.g);
            ps.color[2].put(out, r.color.b);
            ps.color[3].put(out, r.color.a);
        }
        putVarint(out, r.texels);
        putVarint(out, r.filterOps);
        putVarint(out, r.anisoRatio);
        putVarint(out, r.blockCount);
        for (u32 i = 0; i < r.blockCount; ++i) {
            i64 b = i64(s.blocks[r.blockOff + i] >> shift);
            putVarint(out, zigzag(b - ps.prevBlock));
            ps.prevBlock = b;
        }
        bo += r.blockCount;

        // The route is the sample's first texel fetch, so its lowest
        // block (already known to the decoder here) predicts it to
        // within the footprint's address span.
        i64 route_pred =
            r.blockCount > 0 ? i64(s.blocks[r.blockOff]) : ps.prevRoute;
        putVarint(out, zigzag(i64(r.route) - route_pred));
        ps.prevRoute = i64(r.route);

        if (decomp) {
            putVarint(out, r.hostFilterOps);
            out.push_back(r.numLevels);
            ps.fx0.put(out, r.fx[0]);
            ps.fx1.put(out, r.fx[1]);
            ps.fy0.put(out, r.fy[0]);
            ps.fy1.put(out, r.fy[1]);
            ps.lw.put(out, r.levelWeight);
            putVarint(out, r.parentCount);
            for (u32 pi = 0; pi < r.parentCount; ++pi) {
                const ParentRec &pr = s.parents[r.parentOff + pi];
                TEXPIM_ASSERT(pr.childOff == co,
                              "codec requires sequential child offsets");
                putVarint(out, zigzag(i64(pr.addr) - ps.prevParent));
                ps.prevParent = i64(pr.addr);
                ps.parentColor[0].put(out, pr.value.r);
                ps.parentColor[1].put(out, pr.value.g);
                ps.parentColor[2].put(out, pr.value.b);
                ps.parentColor[3].put(out, pr.value.a);
                for (u32 ci = 0; ci < r.anisoRatio; ++ci) {
                    i64 c = i64(s.childBlocks[pr.childOff + ci] >> shift);
                    putVarint(out, zigzag(c - ps.prevChild));
                    ps.prevChild = c;
                }
                co += r.anisoRatio;
            }
            po += r.parentCount;
        }
    }
    TEXPIM_ASSERT(bo == s.blocks.size() && po == s.parents.size() &&
                      co == s.childBlocks.size(),
                  "stream has entries not referenced by any sample");
}

bool
decodeTileRecord(const u8 *data, size_t size, TileRecord &out,
                 std::string *err)
{
    out.clear();
    Reader rd(data, size);

    if (size < 6 || std::memcmp(data, kMagic, 4) != 0)
        return fail(err, "bad magic");
    rd.p += 4;
    if (rd.byte() != kVersion)
        return fail(err, "unknown version");
    unsigned shift = rd.byte();
    if (shift >= 64)
        return fail(err, "bad address shift");

    out.hierZSkipped = rd.varint();
    u64 n_frags = rd.varint();
    u64 n_samples = rd.varint();
    u64 n_blocks = rd.varint();
    u64 n_parents = rd.varint();
    u64 n_children = rd.varint();
    if (!rd.ok)
        return fail(err, "truncated header");
    // Every decoded entity consumes at least one encoded byte, so any
    // count beyond the buffer size is corrupt — and this bounds the
    // reserves below against hostile headers.
    if (n_frags > size || n_samples > size || n_blocks > size ||
        n_parents > size || n_children > size)
        return fail(err, "count exceeds buffer");

    ReplayStream &s = out.stream;
    out.frags.reserve(n_frags);
    s.samples.reserve(n_samples);
    s.blocks.reserve(n_blocks);
    s.parents.reserve(n_parents);
    s.childBlocks.reserve(n_children);

    PredictorState ps;

    u32 next_sample = 0;
    for (u64 i = 0; i < n_frags; ++i) {
        FragRecord fr;
        ps.px += unzigzag(rd.varint());
        ps.py += unzigzag(rd.varint());
        fr.flags = rd.byte();
        if (!rd.ok)
            return fail(err, "truncated fragment");
        if (ps.px < 0 || ps.px > 0xFFFF || ps.py < 0 || ps.py > 0xFFFF)
            return fail(err, "fragment coordinate out of range");
        fr.x = u16(ps.px);
        fr.y = u16(ps.py);
        if ((fr.flags & FragRecord::kShaded) != 0) {
            fr.lodAniso = rd.byte();
            fr.angle = ps.angle.get(rd);
            fr.diffuse = ps.diffuse.get(rd);
            if (!rd.ok)
                return fail(err, "truncated fragment payload");
            fr.sample = next_sample;
            next_sample +=
                1 + (((fr.flags & FragRecord::kHasDetail) != 0) ? 1 : 0);
        }
        out.frags.push_back(fr);
    }
    if (next_sample > n_samples)
        return fail(err, "fragments reference more samples than encoded");

    for (u64 i = 0; i < n_samples; ++i) {
        TexSampleRec r;
        u8 sflags = rd.byte();
        bool decomp = (sflags & kSampleDecomp) != 0;
        if (!decomp) {
            r.color.r = ps.color[0].get(rd);
            r.color.g = ps.color[1].get(rd);
            r.color.b = ps.color[2].get(rd);
            r.color.a = ps.color[3].get(rd);
        }
        r.texels = u32(rd.varint());
        r.filterOps = u32(rd.varint());
        r.anisoRatio = u32(rd.varint());
        u64 block_count = rd.varint();
        if (!rd.ok)
            return fail(err, "truncated sample");
        if (s.blocks.size() + block_count > n_blocks)
            return fail(err, "block list overruns header count");
        r.blockOff = u32(s.blocks.size());
        r.blockCount = u32(block_count);
        for (u64 b = 0; b < block_count; ++b) {
            ps.prevBlock += unzigzag(rd.varint());
            s.blocks.push_back(Addr(u64(ps.prevBlock) << shift));
        }
        if (!rd.ok)
            return fail(err, "truncated block list");
        i64 route_pred = r.blockCount > 0 ? i64(s.blocks[r.blockOff])
                                          : ps.prevRoute;
        r.route = Addr(route_pred + unzigzag(rd.varint()));
        ps.prevRoute = i64(r.route);

        if (decomp) {
            r.hostFilterOps = u32(rd.varint());
            r.numLevels = rd.byte();
            r.fx[0] = ps.fx0.get(rd);
            r.fx[1] = ps.fx1.get(rd);
            r.fy[0] = ps.fy0.get(rd);
            r.fy[1] = ps.fy1.get(rd);
            r.levelWeight = ps.lw.get(rd);
            u64 parent_count = rd.varint();
            if (!rd.ok)
                return fail(err, "truncated decomposition");
            if (r.numLevels > 2)
                return fail(err, "bad level count");
            if (s.parents.size() + parent_count > n_parents)
                return fail(err, "parent list overruns header count");
            r.parentOff = u32(s.parents.size());
            r.parentCount = u32(parent_count);
            for (u64 pi = 0; pi < parent_count; ++pi) {
                ParentRec pr;
                ps.prevParent += unzigzag(rd.varint());
                pr.addr = Addr(ps.prevParent);
                pr.value.r = ps.parentColor[0].get(rd);
                pr.value.g = ps.parentColor[1].get(rd);
                pr.value.b = ps.parentColor[2].get(rd);
                pr.value.a = ps.parentColor[3].get(rd);
                if (!rd.ok)
                    return fail(err, "truncated parent");
                if (s.childBlocks.size() + r.anisoRatio > n_children)
                    return fail(err, "child list overruns header count");
                pr.childOff = u32(s.childBlocks.size());
                for (u32 ci = 0; ci < r.anisoRatio; ++ci) {
                    ps.prevChild += unzigzag(rd.varint());
                    s.childBlocks.push_back(
                        Addr(u64(ps.prevChild) << shift));
                }
                if (!rd.ok)
                    return fail(err, "truncated child list");
                s.parents.push_back(pr);
            }
        }
        s.samples.push_back(r);
    }

    if (!rd.ok)
        return fail(err, "truncated stream");
    if (rd.p != rd.end)
        return fail(err, "trailing bytes after stream");
    if (s.blocks.size() != n_blocks || s.parents.size() != n_parents ||
        s.childBlocks.size() != n_children)
        return fail(err, "stream shorter than header counts");
    out.decodedBytes = out.decodedSizeBytes();
    return true;
}

} // namespace texpim
