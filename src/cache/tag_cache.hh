/**
 * @file
 * Set-associative tags-only cache with true-LRU replacement.
 *
 * The renderer is functional (texel values come from the texture
 * store), so caches track tags and timing only. Each line can carry a
 * camera angle, quantized to 7 bits at 1 degree resolution exactly as
 * the paper's A-TFIM design stores it (SVII-E): a lookup whose angle
 * differs from the cached angle by more than a threshold is reported as
 * an AngleMiss, which A-TFIM treats as a miss so the parent texel is
 * recalculated in the HMC (SV-C).
 */

#ifndef TEXPIM_CACHE_TAG_CACHE_HH
#define TEXPIM_CACHE_TAG_CACHE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
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

class TagCache
{
  public:
    TagCache(std::string name, const CacheParams &params);

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

    /** Probe without allocating or touching LRU state. */
    bool contains(Addr addr) const;

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

    u64 lineBytes() const { return params_.lineBytes; }
    Addr lineAddr(Addr addr) const { return addr & ~(params_.lineBytes - 1); }

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 angleMisses() const { return angle_misses_; }
    u64 accesses() const { return hits_ + misses_ + angle_misses_; }

    double
    hitRate() const
    {
        u64 a = accesses();
        return a ? double(hits_) / double(a) : 0.0;
    }

    void resetStats();

    const std::string &name() const { return name_; }

  private:
    struct Line
    {
        Addr tag = kInvalidAddr;
        u64 lastUse = 0;
        u64 epoch = 0; //!< advanceEpoch() value at last touch
        bool valid = false;
        u8 angleCode = 0;
    };

    /** Find the way holding `tag` in `set`, or nullptr. */
    Line *findLine(unsigned set, Addr tag);
    const Line *findLine(unsigned set, Addr tag) const;

    /** Victim selection: invalid way first, else true LRU. */
    Line &victim(unsigned set);

    /** Set index of a line address (line size and set count are
     *  powers of two, so this is a shift and a mask). */
    unsigned
    setOf(Addr line) const
    {
        return unsigned((line >> line_shift_) & (num_sets_ - 1));
    }

    std::string name_;
    CacheParams params_;
    unsigned num_sets_;
    unsigned line_shift_; //!< log2(lineBytes)
    std::vector<Line> lines_; //!< num_sets_ x ways, row-major
    u64 use_clock_ = 0;
    u64 epoch_ = 0;
    bool last_hit_cross_epoch_ = false;

    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 angle_misses_ = 0;
};

} // namespace texpim

#endif // TEXPIM_CACHE_TAG_CACHE_HH
