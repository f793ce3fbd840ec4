/**
 * @file
 * Texture-traffic attribution: charges every byte a memory model
 * meters to (channel, traffic class, texture id, mip level, lane) and
 * samples per-lane utilization over cycle epochs.
 *
 * A TrafficAttribution is installed as the MemorySystem's TrafficSink
 * for a frame. Resolution goes through an interval table built from
 * the scene's TextureStore (each mip level of each texture occupies a
 * contiguous address range); addresses outside every texture range —
 * framebuffer, depth, geometry — attribute to texture -1 / mip -1.
 *
 * Accounting identity (asserted by tests/sim/test_attribution.cc):
 * because the models report from the same call sites that charge
 * their meters, bytesByClass(OffChip, cls) equals the model's
 * offChipTraffic().bytes(cls) for every class, exactly.
 *
 * Determinism: observations arrive only from the serial timing phase
 * (rule D2), the accumulators are std::maps keyed by ordered structs,
 * and writeJson walks them in key order — the export is byte-identical
 * across gpu.render_threads and jobs settings. The host wall-clock
 * never enters this module.
 */

#ifndef TEXPIM_SIM_ATTRIBUTION_ATTRIBUTION_HH
#define TEXPIM_SIM_ATTRIBUTION_ATTRIBUTION_HH

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mem/traffic_sink.hh"

namespace texpim {

class JsonWriter;
class TextureStore;
class TraceEvents;

class TrafficAttribution : public TrafficSink
{
  public:
    /**
     * @param design design name recorded in the export
     * @param epoch_cycles utilization sampling period
     *        (Profiler::epochCycles())
     */
    TrafficAttribution(std::string design, u64 epoch_cycles);

    /** Build the address->(texture, mip) interval table. Call before
     *  rendering; ranges from an earlier call are replaced. */
    void mapTextures(const TextureStore &store);

    void onTraffic(const TrafficObs &obs) override;

    /** One attribution bucket. Ordering is the deterministic export
     *  order: channel, class, texture, mip, lane. */
    struct Key
    {
        TrafficChannel channel;
        TrafficClass cls;
        int tex;  //!< texture id, -1 = not a texture address
        int mip;  //!< mip level, -1 = not a texture address
        int lane; //!< global vault / channel index, -1 = link-level

        bool
        operator<(const Key &o) const
        {
            return std::tie(channel, cls, tex, mip, lane) <
                   std::tie(o.channel, o.cls, o.tex, o.mip, o.lane);
        }
    };

    const std::map<Key, u64> &bytes() const { return bytes_; }

    /** Total bytes observed on one channel (all classes). */
    u64 totalBytes(TrafficChannel channel) const;

    /** Bytes observed on one channel for one traffic class. */
    u64 bytesByClass(TrafficChannel channel, TrafficClass cls) const;

    /** Per-lane, per-epoch byte counts (utilization timeline). */
    const std::map<std::pair<int, u64>, u64> &laneEpochBytes() const
    {
        return lane_epoch_bytes_;
    }

    u64 epochCycles() const { return epoch_cycles_; }
    const std::string &design() const { return design_; }

    /** Attach the frame's inter-frame reuse numbers (renderSequence):
     *  distinct texel blocks touched, how many the previous frame also
     *  touched, and warm-from-an-earlier-frame tag-cache hits. Emitted
     *  as a "sequence" object by writeJson; absent until set. All
     *  three are deterministic (census + serial replay counters). */
    void
    setSequenceReuse(u64 unique_blocks, u64 reused_prev, u64 tag_hits)
    {
        seq_unique_blocks_ = unique_blocks;
        seq_reused_prev_ = reused_prev;
        seq_tag_hits_ = tag_hits;
        has_sequence_ = true;
    }

    /**
     * Emit the per-lane timelines as Chrome-trace counter tracks
     * ("C" events named "vault<N>.bytes", one sample per non-empty
     * epoch at the epoch's start cycle) into `trace`. Walks the maps
     * in key order — deterministic.
     */
    void emitCounters(TraceEvents &trace) const;

    /**
     * The attribution table as a JSON object:
     * {"design","epoch_cycles","rows":[{"channel","class","tex","mip",
     * "lane","bytes"}...],"timeline":[{"lane","epoch","bytes"}...]}.
     */
    void writeJson(JsonWriter &w) const;

    void reset();

  private:
    struct Range
    {
        Addr begin;
        Addr end; //!< one past the last byte
        int tex;
        int mip;
    };

    /** (texture, mip) owning `addr`, or (-1, -1). */
    std::pair<int, int> resolve(Addr addr) const;

    std::string design_;
    u64 epoch_cycles_;
    std::vector<Range> ranges_; //!< sorted by begin, non-overlapping
    std::map<Key, u64> bytes_;
    std::map<std::pair<int, u64>, u64> lane_epoch_bytes_;

    bool has_sequence_ = false;
    u64 seq_unique_blocks_ = 0;
    u64 seq_reused_prev_ = 0;
    u64 seq_tag_hits_ = 0;
};

} // namespace texpim

#endif // TEXPIM_SIM_ATTRIBUTION_ATTRIBUTION_HH
