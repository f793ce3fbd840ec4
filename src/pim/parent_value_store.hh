/**
 * @file
 * A-TFIM's functional store of parent-texel values (§V-C), keyed by
 * texture-cache line.
 *
 * A cached parent texel is reused while the camera angle stays within
 * the threshold, so replay must remember the value each cached parent
 * had when it was (re)calculated. Values live per cache line: an
 * open-addressed, power-of-two index maps a line address to an entry
 * holding the line's valid-texel mask and the slot with one value per
 * texel of the line. An angle-tagged refill replaces the whole line
 * (one camera angle per line, §V-D), which here is one mask write.
 *
 * Slot values sit in fixed-size chunks that never move, so growing the
 * index copies only the index and a reference returned by reuse()
 * stays valid for the store's lifetime.
 */

#ifndef TEXPIM_PIM_PARENT_VALUE_STORE_HH
#define TEXPIM_PIM_PARENT_VALUE_STORE_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "geom/color.hh"

namespace texpim {

class ParentValueStore
{
    static constexpr u64 kEmpty = ~u64(0); //!< no line number is this

  public:
    /** @param line_bytes cache-line size: a power of two holding at
     *  most 64 texels of kBytesPerTexel bytes. */
    explicit ParentValueStore(u64 line_bytes);

    /**
     * Reuse hit on the parent at `addr`: its stored value if one is
     * set, else nullptr after storing `fresh` as its value.
     */
    const ColorF *
    reuse(Addr addr, const ColorF &fresh)
    {
        Slot s = slot(addr);
        if (*s.valid & s.bit)
            return s.value;
        *s.valid |= s.bit;
        *s.value = fresh;
        return nullptr;
    }

    /**
     * Angle-tagged refill for the parent at `addr`: the line keeps
     * only this texel, whose value becomes `fresh`.
     */
    void
    refill(Addr addr, const ColorF &fresh)
    {
        Slot s = slot(addr);
        *s.valid = s.bit;
        *s.value = fresh;
    }

    /** The stored value of the texel at `addr`, or nullptr. Never
     *  inserts. */
    const ColorF *find(Addr addr) const;

    /** Lines that have held a value. */
    u64 lines() const { return used_; }
    /** Index capacity in lines (a power of two). */
    u64 capacity() const { return index_.size(); }

  private:
    struct Entry
    {
        u64 line = kEmpty; //!< line number (address >> line shift)
        u64 valid = 0;     //!< bit t: texel t holds a value
        u32 slot = 0;      //!< value block of the line
    };

    /** One texel's mask word, bit and value. */
    struct Slot
    {
        u64 *valid;
        u64 bit;
        ColorF *value;
    };

    static constexpr unsigned kChunkShift = 10; //!< 1024 lines per chunk

    static u64
    hash(u64 line)
    {
        return line * 0x9e3779b97f4a7c15ull; // Fibonacci hashing
    }

    /** Index position holding `line`, or the empty position where it
     *  would go. */
    u64
    probe(u64 line) const
    {
        u64 mask = index_.size() - 1;
        u64 i = hash(line) >> hash_shift_;
        while (index_[i].line != line && index_[i].line != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    /** Slot of the texel at `addr`, creating its line (all texels
     *  invalid) on first use. */
    Slot
    slot(Addr addr)
    {
        TEXPIM_ASSERT(addr % kBytesPerTexel == 0,
                      "parent address ", addr, " is not texel-aligned");
        u64 line = addr >> line_shift_;
        u64 i = probe(line);
        if (index_[i].line == kEmpty)
            i = insert(line, i);
        Entry &e = index_[i];
        unsigned t = unsigned((addr / kBytesPerTexel) & texel_mask_);
        return {&e.valid, u64(1) << t, value(e.slot, t)};
    }

    ColorF *
    value(u64 slot, unsigned texel) const
    {
        return &chunks_[slot >> kChunkShift]
                       [((slot & ((u64(1) << kChunkShift) - 1))
                         << texels_shift_) + texel];
    }

    /** Claim a slot for `line` at empty index position `i`, growing
     *  the index first if it would pass half full. Returns the line's
     *  index position. */
    u64 insert(u64 line, u64 i);
    void grow();

    unsigned line_shift_;     //!< log2(line bytes)
    unsigned texels_shift_;   //!< log2(texels per line)
    u64 texel_mask_;          //!< texels per line - 1
    unsigned hash_shift_ = 0; //!< 64 - log2(capacity)
    u64 used_ = 0;

    std::vector<Entry> index_;
    std::vector<std::unique_ptr<ColorF[]>> chunks_; //!< slot values
};

} // namespace texpim

#endif // TEXPIM_PIM_PARENT_VALUE_STORE_HH
