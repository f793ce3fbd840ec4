#include "gpu/replay.hh"

namespace texpim {

u64
TileRecord::sizeBytes() const
{
    return u64(frags.size()) * sizeof(FragRecord) +
           u64(stream.samples.size()) * sizeof(TexSampleRec) +
           u64(stream.blocks.size()) * sizeof(Addr) +
           u64(stream.parents.size()) * sizeof(ParentRec);
}

} // namespace texpim
