#include "pim/parent_value_store.hh"

#include <bit>
#include <limits>

namespace texpim {

namespace {

constexpr u64 kInitialCapacity = 1024; //!< index positions, a power of two

} // namespace

ParentValueStore::ParentValueStore(u64 line_bytes)
    : line_shift_(unsigned(std::countr_zero(line_bytes))),
      texels_shift_(unsigned(std::countr_zero(line_bytes / kBytesPerTexel))),
      texel_mask_(line_bytes / kBytesPerTexel - 1)
{
    TEXPIM_ASSERT(std::has_single_bit(line_bytes) &&
                      line_bytes >= kBytesPerTexel,
                  "line size ", line_bytes,
                  " is not a power of two of whole texels");
    TEXPIM_ASSERT(line_bytes / kBytesPerTexel <= 64, "a line of ",
                  line_bytes / kBytesPerTexel,
                  " texels overflows the 64-bit valid mask");
    index_.resize(kInitialCapacity);
    hash_shift_ = unsigned(64 - std::countr_zero(kInitialCapacity));
}

const ColorF *
ParentValueStore::find(Addr addr) const
{
    const Entry &e = index_[probe(addr >> line_shift_)];
    unsigned t = unsigned((addr / kBytesPerTexel) & texel_mask_);
    if (e.line == kEmpty || !(e.valid & (u64(1) << t)))
        return nullptr;
    return value(e.slot, t);
}

u64
ParentValueStore::insert(u64 line, u64 i)
{
    if (2 * (used_ + 1) > index_.size()) {
        grow();
        i = probe(line);
    }
    TEXPIM_ASSERT(used_ < std::numeric_limits<u32>::max(),
                  "parent value store is full");
    if ((used_ >> kChunkShift) == chunks_.size())
        chunks_.push_back(std::make_unique<ColorF[]>(
            size_t(1) << (kChunkShift + texels_shift_)));
    index_[i] = {line, 0, u32(used_++)};
    return i;
}

void
ParentValueStore::grow()
{
    std::vector<Entry> old(index_.size() * 2);
    old.swap(index_);
    --hash_shift_;
    for (const Entry &e : old)
        if (e.line != kEmpty)
            index_[probe(e.line)] = e;
}

} // namespace texpim
