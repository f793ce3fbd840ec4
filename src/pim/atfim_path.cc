#include "pim/atfim_path.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/trace_events.hh"

namespace texpim {

AtfimTexturePath::AtfimTexturePath(const GpuParams &gpu,
                                   const AtfimParams &atfim,
                                   const PimPacketParams &pkts,
                                   HmcMemory &hmc,
                                   const RobustnessParams &robustness)
    : TexturePath("tex_atfim"), gpu_(gpu), atfim_(atfim), pkts_(pkts),
      hmc_(hmc), robust_(robustness, hmc), l2_(gpu.texL2),
      unit_free_(gpu.clusters, 0), parent_values_(gpu.texL1.lineBytes),
      l1_hits_(stats_.counter(
          "l1_hits", "angle-valid parent texel hits in L1")),
      l1_misses_(stats_.counter("l1_misses", "parent texels absent from L1")),
      l1_angle_recalcs_(stats_.counter(
          "l1_angle_recalcs",
          "L1 hits invalidated by the camera-angle threshold")),
      l2_hits_(stats_.counter(
          "l2_hits", "angle-valid parent texel hits in L2")),
      l2_misses_(stats_.counter("l2_misses", "parent texels absent from L2")),
      l2_angle_recalcs_(stats_.counter(
          "l2_angle_recalcs",
          "L2 hits invalidated by the camera-angle threshold")),
      l1_interframe_hits_(stats_.counter(
          "l1_interframe_hits",
          "angle-valid L1 hits on parents cached in an earlier frame")),
      l2_interframe_hits_(stats_.counter(
          "l2_interframe_hits",
          "angle-valid L2 hits on parents cached in an earlier frame")),
      offload_packages_(stats_.counter(
          "offload_packages", "compacted offload packages sent to the HMC")),
      parents_offloaded_(stats_.counter(
          "parents_offloaded", "parent texels recalculated in the HMC")),
      children_generated_(stats_.counter(
          "children_generated",
          "child texels produced by the Texel Generator")),
      child_blocks_fetched_(stats_.counter(
          "child_blocks_fetched", "consolidated child-texel DRAM bursts")),
      texel_gen_ops_(stats_.counter(
          "texel_gen_ops", "Texel Generator ALU ops")),
      combine_ops_(stats_.counter("combine_ops", "Combination Unit ALU ops")),
      parents_(stats_.counter("parents", "parent texels requested")),
      host_filter_ops_(stats_.counter(
          "host_filter_ops", "host-side bilinear/trilinear ALU ops")),
      addr_ops_(stats_.counter("addr_ops", "host address-generation ALU ops")),
      aniso_samples_(stats_.counter(
          "aniso_samples", "sum of anisotropy ratios over requests")),
      reuse_mismatches_(stats_.counter(
          "reuse_mismatches",
          "reused parents differing visibly from fresh values")),
      reuse_error_(stats_.average(
          "reuse_error", "mean abs error of reused parent texels (0..1)")),
      fallback_child_blocks_(stats_.counter(
          "fallback_child_blocks",
          "child-texel blocks fetched host-side by degraded offloads"))
{
    l1_.reserve(gpu_.clusters);
    for (unsigned c = 0; c < gpu_.clusters; ++c)
        l1_.push_back(std::make_unique<TagCache>(gpu_.texL1));
}

Cycle
AtfimTexturePath::hostFallbackFetch(Cycle start, u64 total_children)
{
    robust_.countFallback(start);

    u64 gran = atfim_.childFetchGranularityBytes;
    Cycle mem_done = start;
    for (Addr b : child_blocks_) {
        mem_done = std::max(
            mem_done,
            hmc_.read(b, gran, TrafficClass::Texture, start));
    }
    // Host ALUs average the fetched children into parent texels.
    Cycle combine = std::max<Cycle>(
        1, (total_children + gpu_.texUnitTexelsPerCycle - 1) /
               gpu_.texUnitTexelsPerCycle);
    fallback_child_blocks_ += child_blocks_.size();
    return mem_done + combine;
}

void
AtfimTexturePath::sampleQuad(const TexRequest &base, const SampleCoords *coords,
                             unsigned count, ReplayStream &stream,
                             SamplerScratch &scratch) const
{
    TEXPIM_ASSERT(base.tex != nullptr, "texture request without texture");
    TEXPIM_ASSERT(base.clusterId < gpu_.clusters, "bad cluster id");

    const Addr mask = ~Addr(atfim_.childFetchGranularityBytes - 1);
    QuadDecompOut &out = scratch.quadDecomp;
    sampleDecomposedQuad(*base.tex, coords, count, base.mode, base.maxAniso,
                         mask, out, scratch.offsetCache);

    for (unsigned q = 0; q < count; ++q) {
        unsigned n = out.anisoRatio[q];
        TexSampleRec rec;
        rec.anisoRatio = n;
        rec.hostFilterOps = out.hostFilterOps[q];
        rec.numLevels = out.numLevels[q];
        rec.fx[0] = out.fx[q][0];
        rec.fx[1] = out.fx[q][1];
        rec.fy[0] = out.fy[q][0];
        rec.fy[1] = out.fy[q][1];
        rec.levelWeight = out.levelWeight[q];

        rec.parentOff = u32(stream.parents.size());
        rec.parentCount = out.parentCount[q];
        for (unsigned p = 0; p < out.parentCount[q]; ++p)
            stream.parents.push_back(
                {out.parentAddr[q][p], out.parentValue[q][p]});
        // Parent-major child bursts, the layout replay() indexes.
        rec.blockOff = u32(stream.blocks.size());
        rec.blockCount = out.parentCount[q] * n;
        stream.blocks.insert(stream.blocks.end(), out.childBlocks[q],
                             out.childBlocks[q] + rec.blockCount);
        stream.samples.push_back(rec);
    }
}

void
AtfimTexturePath::recordL1(unsigned cluster, float angle,
                           ReplayStream &stream, u32 idx)
{
    TEXPIM_ASSERT(cluster < gpu_.clusters, "bad cluster id");
    TexSampleRec &rec = stream.samples[idx];
    TagCache &l1 = *l1_[cluster];
    u8 hit = 0, cross = 0, angle_miss = 0;
    for (unsigned p = 0; p < rec.parentCount; ++p) {
        const u8 bit = u8(1u << p);
        const Addr addr = stream.parents[rec.parentOff + p].addr;
        CacheOutcome o =
            l1.accessAngled(addr, angle, atfim_.angleThresholdRad);
        if (o == CacheOutcome::Hit) {
            hit |= bit;
            if (l1.lastHitCrossEpoch())
                cross |= bit;
        } else if (o == CacheOutcome::AngleMiss) {
            angle_miss |= bit;
        }
    }
    rec.l1Hits = hit;
    rec.l1Cross = cross;
    rec.l1Angle = angle_miss;
}

TexResponse
AtfimTexturePath::replay(const TexRequest &req, const ReplayStream &stream,
                         u32 idx)
{
    TEXPIM_ASSERT(req.clusterId < gpu_.clusters, "bad cluster id");
    const TexSampleRec &rec = stream.samples[idx];
    aniso_samples_ += rec.anisoRatio;

    unsigned n_parents = rec.parentCount;
    float angle = req.coords.cameraAngle;

    // Host texture unit: parent address generation (pipelined, same
    // coalesced throughput as the baseline unit).
    Cycle addr_gen = std::max<Cycle>(
        1, (n_parents + gpu_.texUnitTexelsPerCycle - 1) /
               gpu_.texUnitTexelsPerCycle);
    Cycle start = std::max(req.issue, unit_free_[req.clusterId]);
    Cycle t0 = start + addr_gen;

    // Angle-checked cache lookups per parent texel: recordL1 took the
    // L1 outcomes, and the L1 non-hits look the L2 up here.
    Cycle host_ready = t0 + gpu_.texL1HitLatency;
    const unsigned l1_hit = unsigned(std::popcount(rec.l1Hits));
    const unsigned l1_angle = unsigned(std::popcount(rec.l1Angle));
    const unsigned l1_out = n_parents - l1_hit;
    l1_hits_ += l1_hit;
    l1_interframe_hits_ += unsigned(std::popcount(rec.l1Cross));
    l1_angle_recalcs_ += l1_angle;
    l1_misses_ += l1_out - l1_angle;

    ColorF values[kQuadMaxParents];
    unsigned miss_idx[kQuadMaxParents];
    unsigned n_miss = 0;
    u64 total_children = 0;

    for (unsigned p = 0; p < n_parents; ++p) {
        const ParentRec &parent = stream.parents[rec.parentOff + p];
        bool reuse = (rec.l1Hits >> p) & 1u;
        if (!reuse) {
            // The L2 copy may still be angle-valid (e.g. refreshed by
            // another cluster); reuse it if so.
            CacheOutcome o2 = l2_.accessAngled(parent.addr, angle,
                                               atfim_.angleThresholdRad);
            if (o2 == CacheOutcome::Hit) {
                ++l2_hits_;
                if (l2_.lastHitCrossEpoch())
                    ++l2_interframe_hits_;
                reuse = true;
                host_ready =
                    std::max(host_ready, t0 + gpu_.texL1HitLatency +
                                             gpu_.texL2HitLatency);
            } else {
                // Parent must be (re)calculated in the HMC (SV-C).
                if (o2 == CacheOutcome::AngleMiss)
                    ++l2_angle_recalcs_;
                else
                    ++l2_misses_;
                miss_idx[n_miss++] = p;
                total_children += rec.anisoRatio;

                // The refill replaces the whole cache line (one camera
                // angle per line, SV-D): values the line held from the
                // old angle are gone, and the fresh value is stored.
                parent_values_.refill(parent.addr, parent.value);
            }
        }

        // Functional value: a reuse-hit takes the stored (possibly
        // stale — that is the approximation) value, storing the fresh
        // one if none is set; a recalculation just stored it.
        const ColorF *stored =
            reuse ? parent_values_.reuse(parent.addr, parent.value)
                  : nullptr;
        if (stored != nullptr) {
            values[p] = *stored;
            float err = std::fabs(stored->r - parent.value.r) +
                        std::fabs(stored->g - parent.value.g) +
                        std::fabs(stored->b - parent.value.b);
            reuse_error_.sample(err / 3.0);
            if (err > 3.0f / 255.0f)
                ++reuse_mismatches_;
        } else {
            values[p] = parent.value;
        }
    }

    Cycle parents_ready = host_ready;

    if (n_miss > 0) {
        // Offloading Unit: one compacted package for all missing
        // parents of this request (base address + per-parent offsets).
        Cycle offload_at = t0 + gpu_.texL1HitLatency + gpu_.texL2HitLatency;

        // Child Texel Consolidation: merge identical child fetches
        // into DRAM bursts (children of neighboring parents overlap
        // heavily, which is exactly what this unit exploits). Computed
        // up front because the degraded host path fetches the same
        // blocks.
        child_blocks_.clear();
        u64 gran = atfim_.childFetchGranularityBytes;
        for (unsigned i = 0; i < n_miss; ++i) {
            const Addr *cb = stream.blocks.data() + rec.blockOff +
                             size_t(miss_idx[i]) * rec.anisoRatio;
            child_blocks_.insert(child_blocks_.end(), cb,
                                 cb + rec.anisoRatio);
        }
        if (atfim_.consolidateChildren) {
            // tie-break: child block addresses are u64 (total order);
            // duplicates are interchangeable and unique() drops them.
            std::sort(child_blocks_.begin(), child_blocks_.end());
            child_blocks_.erase(
                std::unique(child_blocks_.begin(), child_blocks_.end()),
                child_blocks_.end());
        }

        // One package, one cube: parents and children share a texture
        // (§V-E), so route by the first missing parent.
        Addr route = stream.parents[rec.parentOff + miss_idx[0]].addr;

        if (robust_.shouldBypass(route)) {
            // Circuit breaker: the cube's links retry too often, so
            // the parents are recalculated host-side instead.
            parents_ready = std::max(
                parents_ready,
                hostFallbackFetch(offload_at, total_children));
        } else {
            u64 pkg_bytes = atfim_.compactPackages
                                ? pkts_.atfimRequestBytes(n_miss)
                                : n_miss * pkts_.readRequestBytes *
                                      pkts_.offloadFactor;
            Cycle deadline = robust_.deadline(offload_at);
            Cycle arrival = hmc_.hostToDevice(
                pkg_bytes, TrafficClass::PimPackage, offload_at, route);
            if (robust_.timedOut(deadline, arrival)) {
                // The request package blew its deadline before the
                // logic layer saw it; flow control cancels it and the
                // host recalculates from the deadline.
                parents_ready = std::max(
                    parents_ready,
                    hostFallbackFetch(deadline, total_children));
            } else {
                // Texel Generator / Combination Unit pipeline occupancy
                // (both 16-wide, fractional so small groups don't waste
                // slots); decompose is a latency stage of the pipeline.
                double gen_occupancy =
                    double(total_children) /
                    double(atfim_.texelGeneratorAlus);
                Cycle gen_cycles = Cycle(std::ceil(gen_occupancy));
                Cycle combine =
                    (total_children + atfim_.combinationAlus - 1) /
                    atfim_.combinationAlus;
                double pipe_start = logic_pipe_.reserve(double(arrival),
                                                        gen_occupancy);
                Cycle fetch_at =
                    Cycle(pipe_start) + atfim_.decomposeLatency + gen_cycles;

                Cycle mem_done = fetch_at;
                for (Addr b : child_blocks_) {
                    mem_done = std::max(
                        mem_done,
                        hmc_.internalAccess({b, gran, MemOp::Read,
                                             TrafficClass::Texture,
                                             fetch_at}));
                }

                // Combination Unit averaging drains behind the child
                // fetches, then the composing stage groups the
                // response package.
                Cycle done = mem_done + combine + atfim_.composeLatency;

                Cycle back =
                    hmc_.deviceToHost(pkts_.atfimResponseBytes(n_miss),
                                      TrafficClass::PimPackage, done,
                                      route);

                TEXPIM_PROF_CYCLES(prof::kZonePimPackage,
                                   done - Cycle(pipe_start));
                TEXPIM_TRACE_COMPLETE("pim", "atfim_offload",
                                      320 + req.clusterId, offload_at,
                                      back - offload_at);
                offload_packages_ += 1;
                parents_offloaded_ += n_miss;
                children_generated_ += total_children;
                child_blocks_fetched_ +=
                    child_blocks_.size();
                texel_gen_ops_ += total_children;
                combine_ops_ += total_children;

                if (robust_.timedOut(deadline, back)) {
                    // The logic layer did the work but the response
                    // missed the deadline; the host stops waiting and
                    // refetches the children itself.
                    parents_ready = std::max(
                        parents_ready,
                        hostFallbackFetch(deadline, total_children));
                } else {
                    parents_ready = std::max(parents_ready, back);
                }
            }
        }
    }

    // Host bilinear/trilinear over the (approximated) parent texels.
    Cycle host_filter = std::max<Cycle>(
        1, (rec.hostFilterOps + gpu_.texUnitTexelsPerCycle - 1) /
               gpu_.texUnitTexelsPerCycle);
    Cycle complete = parents_ready + host_filter;
    unit_free_[req.clusterId] =
        start + std::max(addr_gen, host_filter);

    ColorF color = rec.combine(values);

    parents_ += n_parents;
    host_filter_ops_ += rec.hostFilterOps;
    addr_ops_ += n_parents;
    recordRequest(req.wanted ? req.wanted : req.issue, complete);

    return {color, complete};
}

void
AtfimTexturePath::beginFrame()
{
    std::fill(unit_free_.begin(), unit_free_.end(), 0);
    logic_pipe_.reset();
    // Angle caches stay warm across frames (that is the whole point of
    // A-TFIM's temporal reuse); the epoch tick feeds the inter-frame
    // reuse counters.
    for (auto &c : l1_)
        c->advanceEpoch();
    l2_.advanceEpoch();
}

u64
AtfimTexturePath::angleRecalcs() const
{
    return l1_angle_recalcs_.value() + l2_angle_recalcs_.value();
}

void
AtfimTexturePath::resetStats()
{
    TexturePath::resetStats();
    robust_.stats().resetAll();
}

} // namespace texpim
