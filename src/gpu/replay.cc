#include "gpu/replay.hh"

namespace texpim {

void
ReplayStream::appendSampleFrom(const ReplayStream &src, u32 idx)
{
    TexSampleRec r = src.samples[idx];

    u32 bo = u32(blocks.size());
    blocks.insert(blocks.end(), src.blocks.begin() + r.blockOff,
                  src.blocks.begin() + r.blockOff + r.blockCount);
    r.blockOff = bo;

    u32 po = u32(parents.size());
    for (u32 pi = 0; pi < r.parentCount; ++pi) {
        ParentRec pr = src.parents[r.parentOff + pi];
        u32 co = u32(childBlocks.size());
        childBlocks.insert(childBlocks.end(),
                           src.childBlocks.begin() + pr.childOff,
                           src.childBlocks.begin() + pr.childOff +
                               r.anisoRatio);
        pr.childOff = co;
        parents.push_back(pr);
    }
    r.parentOff = po;

    samples.push_back(r);
}

u64
TileRecord::decodedSizeBytes() const
{
    return u64(frags.size()) * sizeof(FragRecord) +
           u64(stream.samples.size()) * sizeof(TexSampleRec) +
           u64(stream.blocks.size()) * sizeof(Addr) +
           u64(stream.parents.size()) * sizeof(ParentRec) +
           u64(stream.childBlocks.size()) * sizeof(Addr);
}

void
TileRecord::releaseDecoded()
{
    // swap-with-empty actually returns the capacity to the allocator;
    // clear() would keep the raw arrays' footprint alive between the
    // phases, defeating the encoding.
    std::vector<FragRecord>().swap(frags);
    std::vector<TexSampleRec>().swap(stream.samples);
    std::vector<Addr>().swap(stream.blocks);
    std::vector<ParentRec>().swap(stream.parents);
    std::vector<Addr>().swap(stream.childBlocks);
}

} // namespace texpim
