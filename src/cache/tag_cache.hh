/**
 * @file
 * Set-associative tags-only cache with true-LRU replacement.
 *
 * The renderer is functional (texel values come from the texture
 * store), so caches track tags only; callers count the outcomes in
 * their own StatGroups and profile zones. Each line can carry a
 * camera angle, quantized to 7 bits at 1 degree resolution exactly as
 * the paper's A-TFIM design stores it (SVII-E): a lookup whose angle
 * differs from the cached angle by more than a threshold is reported as
 * an AngleMiss, which A-TFIM treats as a miss so the parent texel is
 * recalculated in the HMC (SV-C).
 */

#ifndef TEXPIM_CACHE_TAG_CACHE_HH
#define TEXPIM_CACHE_TAG_CACHE_HH

#include <vector>

#include "common/types.hh"

namespace texpim {

struct CacheParams
{
    u64 sizeBytes = 16 * 1024; //!< Table I: 16 KB L1 texture cache
    unsigned ways = 16;        //!< Table I: 16-way
    u64 lineBytes = 64;        //!< SVII-E: 64 B cache lines
};

enum class CacheOutcome : u8 {
    Hit,       //!< tag present (and angle within threshold, if checked)
    Miss,      //!< tag absent
    AngleMiss, //!< tag present but camera angle differs past threshold
};

/** Quantize a camera angle (radians, [0, pi)) to the 7-bit / 1-degree
 *  representation the paper stores per cache line. */
u8 quantizeAngle(float radians);

/** Back from the 7-bit code to radians (bucket center). */
float dequantizeAngle(u8 code);

// texpim-lint: caller-owned one writer at a time: a texture L1 its
// cluster's current tile recorder, any other cache the serial replay
class TagCache
{
  public:
    explicit TagCache(const CacheParams &params);

    /** Plain lookup + allocate-on-miss. */
    CacheOutcome access(Addr addr);

    /**
     * Angle-checked lookup (A-TFIM). On a tag hit, compares the stored
     * quantized angle with `angle_rad`; a difference strictly greater
     * than `threshold_rad` is an AngleMiss. On any kind of miss the
     * line is (re)allocated with the new angle.
     *
     * A negative threshold means "never recalculate" (the paper's
     * A-TFIM-no configuration).
     */
    CacheOutcome accessAngled(Addr addr, float angle_rad,
                              float threshold_rad);

    /**
     * Mark a frame boundary for inter-frame reuse accounting: lines
     * remember the epoch of their last touch, and a hit on a line last
     * touched in an earlier epoch reports via lastHitCrossEpoch() —
     * the texel was warm from a previous frame. Pure accounting; hit/
     * miss outcomes and LRU state are unaffected.
     */
    void advanceEpoch() { ++epoch_; }

    /** Whether the most recent Hit outcome reused a line last touched
     *  before the current epoch (i.e. in an earlier frame). */
    bool lastHitCrossEpoch() const { return last_hit_cross_epoch_; }

    void invalidateAll();

    Addr lineAddr(Addr addr) const { return addr & ~(params_.lineBytes - 1); }

  private:
    struct Line
    {
        Addr tag = kInvalidAddr; //!< kInvalidAddr marks an empty way
        u64 lastUse = 0;         //!< 0 while empty, so LRU picks it first
        u64 epoch = 0;           //!< advanceEpoch() value at last touch
        u8 angleCode = 0;
    };

    /** Find the way holding `tag` in `set`, or nullptr. */
    Line *findLine(unsigned set, Addr tag);

    /** Report a tag hit on `l`: note whether it crosses an epoch. */
    CacheOutcome hit(Line &l);

    /** Miss: replace the set's LRU way (an empty way first, since its
     *  lastUse is 0) with `line`, stamped now and with `angle_code`. */
    CacheOutcome fillVictim(unsigned set, Addr line, u8 angle_code);

    /** Set index of a line address (line size and set count are
     *  powers of two, so this is a shift and a mask). */
    unsigned
    setOf(Addr line) const
    {
        return unsigned((line >> line_shift_) & (num_sets_ - 1));
    }

    CacheParams params_;
    unsigned num_sets_;
    unsigned line_shift_; //!< log2(lineBytes)
    std::vector<Line> lines_; //!< num_sets_ x ways, row-major
    u64 use_clock_ = 0;
    u64 epoch_ = 0;
    bool last_hit_cross_epoch_ = false;
};

} // namespace texpim

#endif // TEXPIM_CACHE_TAG_CACHE_HH
