#include "sim/attribution/attribution.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stat_export.hh"
#include "common/trace_events.hh"
#include "tex/texture.hh"

namespace texpim {

TrafficAttribution::TrafficAttribution(std::string design, u64 epoch_cycles)
    : design_(std::move(design)), epoch_cycles_(epoch_cycles)
{
    TEXPIM_ASSERT(epoch_cycles_ > 0, "epoch period must be positive");
}

void
TrafficAttribution::mapTextures(const TextureStore &store)
{
    ranges_.clear();
    for (u32 t = 0; t < store.count(); ++t) {
        const Texture &tex = store.texture(t);
        for (unsigned l = 0; l < tex.levels(); ++l) {
            u64 bytes = tex.levelBytes(l);
            if (bytes == 0)
                continue;
            Addr begin = tex.baseAddr() + tex.levelOffset(l);
            ranges_.push_back({begin, begin + bytes, int(t), int(l)});
        }
    }
    // tie-break: ranges are disjoint (asserted below), so begin is a
    // total order — no two ranges can compare equal.
    std::sort(ranges_.begin(), ranges_.end(),
              [](const Range &a, const Range &b) {
                  return a.begin < b.begin;
              });
    for (size_t i = 1; i < ranges_.size(); ++i)
        TEXPIM_ASSERT(ranges_[i - 1].end <= ranges_[i].begin,
                      "overlapping texture address ranges");
}

std::pair<int, int>
TrafficAttribution::resolve(Addr addr) const
{
    // Last range with begin <= addr (ranges are sorted, disjoint).
    auto it = std::upper_bound(ranges_.begin(), ranges_.end(), addr,
                               [](Addr a, const Range &r) {
                                   return a < r.begin;
                               });
    if (it == ranges_.begin())
        return {-1, -1};
    --it;
    if (addr >= it->end)
        return {-1, -1};
    return {it->tex, it->mip};
}

void
TrafficAttribution::onTraffic(const TrafficObs &obs)
{
    auto [tex, mip] = resolve(obs.addr);
    bytes_[Key{obs.channel, obs.cls, tex, mip, obs.lane}] += obs.bytes;
    if (obs.lane >= 0)
        lane_epoch_bytes_[{obs.lane, obs.at / epoch_cycles_}] += obs.bytes;
}

u64
TrafficAttribution::totalBytes(TrafficChannel channel) const
{
    u64 t = 0;
    for (const auto &[k, b] : bytes_)
        if (k.channel == channel)
            t += b;
    return t;
}

u64
TrafficAttribution::bytesByClass(TrafficChannel channel,
                                 TrafficClass cls) const
{
    u64 t = 0;
    for (const auto &[k, b] : bytes_)
        if (k.channel == channel && k.cls == cls)
            t += b;
    return t;
}

void
TrafficAttribution::emitCounters(TraceEvents &trace) const
{
    for (const auto &[key, b] : lane_epoch_bytes_) {
        const auto &[lane, epoch] = key;
        trace.counterNamed("util",
                           "vault" + std::to_string(lane) + ".bytes",
                           epoch * epoch_cycles_, double(b));
    }
}

void
TrafficAttribution::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.keyValue("design", design_);
    w.keyValue("epoch_cycles", epoch_cycles_);
    w.key("rows").beginArray();
    for (const auto &[k, b] : bytes_) {
        w.beginObject();
        w.keyValue("channel", trafficChannelName(k.channel));
        w.keyValue("class", trafficClassName(k.cls));
        w.keyValue("tex", i64(k.tex));
        w.keyValue("mip", i64(k.mip));
        w.keyValue("lane", i64(k.lane));
        w.keyValue("bytes", b);
        w.endObject();
    }
    w.endArray();
    w.key("timeline").beginArray();
    for (const auto &[key, b] : lane_epoch_bytes_) {
        w.beginObject();
        w.keyValue("lane", i64(key.first));
        w.keyValue("epoch", key.second);
        w.keyValue("bytes", b);
        w.endObject();
    }
    w.endArray();
    if (has_sequence_) {
        w.key("sequence").beginObject();
        w.keyValue("unique_blocks", seq_unique_blocks_);
        w.keyValue("blocks_reused_prev", seq_reused_prev_);
        w.keyValue("interframe_tag_hits", seq_tag_hits_);
        w.endObject();
    }
    w.endObject();
}

void
TrafficAttribution::reset()
{
    bytes_.clear();
    lane_epoch_bytes_.clear();
    has_sequence_ = false;
    seq_unique_blocks_ = seq_reused_prev_ = seq_tag_hits_ = 0;
}

} // namespace texpim
