#include "gpu/host_texture_path.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace_events.hh"

namespace texpim {

HostTexturePath::HostTexturePath(const GpuParams &params, MemorySystem &mem)
    : TexturePath("tex_host"), params_(params), mem_(mem),
      l2_(params.texL2), unit_free_(params.clusters, 0),
      l1_hits_(stats_.counter("l1_hits", "texture L1 line hits")),
      l1_misses_(stats_.counter("l1_misses", "texture L1 line misses")),
      l2_hits_(stats_.counter("l2_hits", "texture L2 line hits")),
      l2_misses_(stats_.counter("l2_misses", "texture L2 line misses")),
      l1_interframe_hits_(stats_.counter(
          "l1_interframe_hits",
          "L1 hits on lines warm from an earlier frame")),
      l2_interframe_hits_(stats_.counter(
          "l2_interframe_hits",
          "L2 hits on lines warm from an earlier frame")),
      mshr_merges_(stats_.counter(
          "mshr_merges", "misses merged into an outstanding line fetch")),
      texels_(stats_.counter("texels", "texels consumed by filtering")),
      lines_(stats_.counter("lines",
                            "distinct cache lines touched per request")),
      addr_ops_(stats_.counter("addr_ops",
                               "texture address-generation ALU ops")),
      filter_ops_(stats_.counter("filter_ops", "texture filtering ALU ops")),
      aniso_samples_(stats_.counter(
          "aniso_samples", "sum of anisotropy ratios over requests")),
      lat_total_(stats_.average("lat_total",
                                "request latency, issue to complete")),
      lat_unit_wait_(stats_.average(
          "lat_unit_wait", "wait for the per-cluster texture unit")),
      lat_mem_(stats_.average("lat_mem",
                              "memory portion of the request latency"))
{
    l1_.reserve(params_.clusters);
    for (unsigned c = 0; c < params_.clusters; ++c)
        l1_.push_back(std::make_unique<TagCache>(params_.texL1));
}

void
recordConventionalQuad(const TexRequest &base, const SampleCoords *coords,
                       unsigned count, Addr block_mask,
                       ReplayStream &stream, SamplerScratch &scratch)
{
    TEXPIM_ASSERT(base.tex != nullptr, "texture request without texture");
    QuadConvOut &out = scratch.quadConv;
    sampleConventionalQuad(*base.tex, coords, count, base.mode, base.maxAniso,
                           block_mask, out, scratch.offsetCache);

    for (unsigned q = 0; q < count; ++q) {
        TexSampleRec rec;
        rec.color = out.color[q];
        rec.texels = out.texels[q];
        rec.filterOps = out.filterOps[q];
        rec.anisoRatio = out.anisoRatio[q];
        rec.route = out.route[q];
        rec.blockOff = u32(stream.blocks.size());
        rec.blockCount = out.blockCount[q];
        stream.blocks.insert(stream.blocks.end(), out.blocks[q],
                             out.blocks[q] + out.blockCount[q]);
        stream.samples.push_back(rec);
    }
}

void
HostTexturePath::sampleQuad(const TexRequest &base, const SampleCoords *coords,
                            unsigned count, ReplayStream &stream,
                            SamplerScratch &scratch) const
{
    TEXPIM_ASSERT(base.clusterId < params_.clusters, "bad cluster id");
    // Coalesce to cache lines directly (the mask TagCache::lineAddr
    // applies), yielding the sorted/deduplicated line list of every
    // texel the filter fetches (the differential suite pins it against
    // the reference sampler's fetch trace).
    recordConventionalQuad(base, coords, count,
                           ~Addr(params_.texL1.lineBytes - 1), stream,
                           scratch);
}

void
HostTexturePath::recordL1(unsigned cluster, float /*angle*/,
                          ReplayStream &stream, u32 idx)
{
    TEXPIM_ASSERT(cluster < params_.clusters, "bad cluster id");
    TexSampleRec &rec = stream.samples[idx];
    // A lane may fetch kQuadMaxFetches (256) texels, but its distinct
    // lines stay far below that, so the hit counts fit their u8.
    TEXPIM_ASSERT(rec.blockCount <= 255, "sample touches ", rec.blockCount,
                  " lines, more than its u8 L1 hit count holds");
    TagCache &l1 = *l1_[cluster];
    Addr *lines = stream.blocks.data() + rec.blockOff;
    u32 misses = 0;
    u32 hits = 0;
    u32 cross = 0;
    for (u32 i = 0; i < rec.blockCount; ++i) {
        if (l1.access(lines[i]) == CacheOutcome::Hit) {
            ++hits;
            if (l1.lastHitCrossEpoch())
                ++cross;
            continue;
        }
        // Misses move to the front in fetch order, the order replay()
        // walks the L2 in; the slice stays a permutation of the lines.
        std::swap(lines[misses++], lines[i]);
    }
    rec.blockCount = misses;
    rec.l1Hits = u8(hits);
    rec.l1Cross = u8(cross);
}

TexResponse
HostTexturePath::replay(const TexRequest &req, const ReplayStream &stream,
                        u32 idx)
{
    TEXPIM_ASSERT(req.clusterId < params_.clusters, "bad cluster id");
    const TexSampleRec &rec = stream.samples[idx];

    unsigned texels = rec.texels;
    // Each address ALU emits a 2x2 footprint per cycle and the filter
    // tree keeps pace, so the pipelined unit consumes
    // texUnitTexelsPerCycle texels per cycle end to end.
    Cycle occupancy = std::max<Cycle>(
        1, (texels + params_.texUnitTexelsPerCycle - 1) /
               params_.texUnitTexelsPerCycle);
    Cycle addr_gen = occupancy;
    Cycle filter = occupancy;

    // The per-cluster texture unit is pipelined; back-to-back requests
    // are spaced by the widest stage.
    Cycle start = std::max(req.issue, unit_free_[req.clusterId]);
    unit_free_[req.clusterId] = start + occupancy;

    Cycle t0 = start + addr_gen;

    // recordL1 left the sample's L1 misses at the front of its slice.
    Cycle data_ready = t0 + params_.texL1HitLatency;
    const u32 l1_misses = rec.blockCount;
    const u32 lines = l1_misses + rec.l1Hits;
    for (u32 i = 0; i < l1_misses; ++i) {
        Addr line = stream.blocks[rec.blockOff + i];
        Cycle l2_at = t0 + params_.texL1HitLatency;
        if (l2_.access(line) == CacheOutcome::Hit) {
            ++l2_hits_;
            if (l2_.lastHitCrossEpoch())
                ++l2_interframe_hits_;
            data_ready =
                std::max(data_ready, l2_at + params_.texL2HitLatency);
            continue;
        }
        ++l2_misses_;
        TEXPIM_TRACE_INSTANT("texture", "l2_miss", 100 + req.clusterId, t0);
        Cycle mem_at = l2_at + params_.texL2HitLatency;
        Cycle done = outstanding_.lookup(line, mem_at);
        if (done == kNeverCycle) {
            done = mem_.read(line, params_.texL1.lineBytes,
                             TrafficClass::Texture, mem_at);
            outstanding_.insert(line, done);
            TEXPIM_TRACE_COMPLETE("texture", "line_fill",
                                  100 + req.clusterId, mem_at,
                                  done - mem_at);
        } else {
            ++mshr_merges_;
        }
        data_ready = std::max(data_ready, done);
    }

    Cycle complete = data_ready + filter;

    l1_hits_ += rec.l1Hits;
    l1_interframe_hits_ += rec.l1Cross;
    l1_misses_ += l1_misses;
    texels_ += texels;
    lines_ += lines;
    addr_ops_ += texels;
    filter_ops_ += rec.filterOps;
    aniso_samples_ += rec.anisoRatio;
    lat_total_.sample(double(complete - req.issue));
    lat_unit_wait_.sample(double(start - req.issue));
    lat_mem_.sample(double(data_ready - t0));
    TEXPIM_TRACE_COMPLETE("texture", "tex_request", 100 + req.clusterId,
                          start, complete - start);
    recordRequest(req.wanted ? req.wanted : req.issue, complete);

    return {rec.color, complete};
}

void
HostTexturePath::beginFrame()
{
    std::fill(unit_free_.begin(), unit_free_.end(), 0);
    outstanding_.clear();
    // Cache contents stay warm across frames; the epoch tick lets the
    // inter-frame reuse counters tell warm hits from intra-frame ones.
    for (auto &c : l1_)
        c->advanceEpoch();
    l2_.advanceEpoch();
}

} // namespace texpim
