#include "gpu/replay.hh"

#include <bit>

namespace texpim {

u64
TileRecord::sizeBytes() const
{
    return u64(frags.size()) * sizeof(FragRecord) +
           u64(stream.samples.size()) * sizeof(TexSampleRec) +
           u64(stream.blocks.size()) * sizeof(Addr) +
           u64(stream.parents.size()) * sizeof(ParentRec);
}

namespace {

/** Word-at-a-time FNV-1a (64-bit offset basis and prime). */
// texpim-lint: caller-owned each TileRecord::hash() call owns its
// private hasher
struct Fnv64
{
    u64 h = 14695981039346656037ull;

    void word(u64 w) { h = (h ^ w) * 1099511628211ull; }

    /** Two 32-bit fields as one word. */
    void pair(u32 lo, u32 hi) { word(u64(lo) | u64(hi) << 32); }

    void
    pair(float lo, float hi)
    {
        pair(std::bit_cast<u32>(lo), std::bit_cast<u32>(hi));
    }

    void
    color(const ColorF &c)
    {
        pair(c.r, c.g);
        pair(c.b, c.a);
    }
};

} // namespace

u64
TileRecord::hash() const
{
    Fnv64 f;
    f.word(hierZSkipped);
    for (const FragRecord &fr : frags) {
        f.word(u64(fr.x) | u64(fr.y) << 16 | u64(fr.flags) << 32);
        f.pair(fr.angle, fr.diffuse);
        f.pair(fr.sample, fr.detail);
    }
    for (const TexSampleRec &r : stream.samples) {
        f.color(r.color);
        f.word(r.route);
        f.pair(r.blockOff, r.blockCount);
        f.pair(r.texels, r.filterOps);
        f.pair(r.anisoRatio, r.parentOff);
        f.pair(r.parentCount, r.hostFilterOps);
        f.pair(u32(r.numLevels) | u32(r.l1Hits) << 8 |
                   u32(r.l1Cross) << 16 | u32(r.l1Angle) << 24,
               std::bit_cast<u32>(r.levelWeight));
        f.pair(r.fx[0], r.fx[1]);
        f.pair(r.fy[0], r.fy[1]);
    }
    for (Addr a : stream.blocks)
        f.word(a);
    for (const ParentRec &p : stream.parents) {
        f.word(p.addr);
        f.color(p.value);
    }
    return f.h;
}

} // namespace texpim
