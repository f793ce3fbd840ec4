#include "pim/stfim_path.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/trace_events.hh"
#include "gpu/host_texture_path.hh"

namespace texpim {

StfimTexturePath::StfimTexturePath(const GpuParams &gpu,
                                   const MtuParams &mtu,
                                   const PimPacketParams &pkts,
                                   HmcMemory &hmc,
                                   const RobustnessParams &robustness)
    : TexturePath("tex_stfim"), gpu_(gpu), mtu_params_(mtu), pkts_(pkts),
      hmc_(hmc), robust_(robustness, hmc),
      queue_stalls_(stats_.counter(
          "queue_stalls", "requests stalled on a full MTU request queue")),
      texels_(stats_.counter("texels", "texels fetched by the MTUs")),
      dram_blocks_(stats_.counter("dram_blocks",
                                  "coalesced DRAM bursts issued")),
      packages_(stats_.counter("packages",
                               "request+response packages over the links")),
      addr_ops_(stats_.counter("addr_ops",
                               "MTU address-generation ALU ops")),
      filter_ops_(stats_.counter("filter_ops", "MTU filtering ALU ops")),
      aniso_samples_(stats_.counter(
          "aniso_samples", "sum of anisotropy ratios over requests")),
      fallback_host_blocks_(stats_.counter(
          "fallback_host_blocks",
          "texel blocks fetched host-side by degraded requests"))
{
    TEXPIM_ASSERT(mtu_params_.requestQueueEntries > 0,
                  "MTU needs a request queue");
    mtus_.resize(gpu_.clusters);
    for (auto &m : mtus_)
        m.queueSlots.assign(mtu_params_.requestQueueEntries, 0);
}

TexResponse
StfimTexturePath::hostFallback(const TexRequest &req, Cycle start,
                               const ReplayStream &stream,
                               const TexSampleRec &rec)
{
    robust_.countFallback(start);

    // B-PIM semantics: the blocks the MTU would have read from its
    // vaults are fetched as ordinary host reads over the external
    // links, then filtered on the host shader cluster's ALUs.
    u64 gran = mtu_params_.fetchGranularityBytes;
    Cycle mem_done = start;
    for (u32 i = 0; i < rec.blockCount; ++i) {
        Addr b = stream.blocks[rec.blockOff + i];
        mem_done = std::max(
            mem_done,
            hmc_.read(b, gran, TrafficClass::Texture, start));
    }
    Cycle filter = std::max<Cycle>(
        1, (rec.texels + gpu_.texUnitTexelsPerCycle - 1) /
               gpu_.texUnitTexelsPerCycle);
    Cycle complete = mem_done + filter;

    fallback_host_blocks_ += rec.blockCount;
    recordRequest(req.wanted ? req.wanted : req.issue, complete);
    return {rec.color, complete};
}

void
StfimTexturePath::beginFrame()
{
    for (auto &m : mtus_) {
        std::fill(m.queueSlots.begin(), m.queueSlots.end(), 0);
        m.head = 0;
        m.pipeFree = 0;
    }
}

void
StfimTexturePath::sampleQuad(const TexRequest &base, const SampleCoords *coords,
                             unsigned count, ReplayStream &stream,
                             SamplerScratch &scratch) const
{
    TEXPIM_ASSERT(base.clusterId < mtus_.size(), "bad cluster id");
    // The host path's recording, coalesced to the MTU's DRAM-burst
    // granularity instead of cache lines.
    recordConventionalQuad(base, coords, count,
                           ~Addr(mtu_params_.fetchGranularityBytes - 1),
                           stream, scratch);
}

TexResponse
StfimTexturePath::replay(const TexRequest &req, const ReplayStream &stream,
                         u32 idx)
{
    TEXPIM_ASSERT(req.clusterId < mtus_.size(), "bad cluster id");
    Mtu &mtu = mtus_[req.clusterId];
    const TexSampleRec &rec = stream.samples[idx];
    aniso_samples_ += rec.anisoRatio;

    unsigned texels = rec.texels;
    u64 gran = mtu_params_.fetchGranularityBytes;
    Addr route = rec.route;

    // Circuit breaker: a cube whose links are retrying too often is
    // not offered the offload at all.
    if (robust_.shouldBypass(route))
        return hostFallback(req, req.issue, stream, rec);

    // 1. Request package to the HMC over the transmit link. Requests
    //    are batched per fragment quad (one package carries
    //    requestsPerPackage requests; each is charged its share).
    //    When the MTU queue is full, the shader suspends the package
    //    until a slot frees up ("stall"/"resume" flow control, SIV) —
    //    modeled by the ring of per-slot completion times.
    Cycle send_at = std::max(req.issue, mtu.queueSlots[mtu.head]);
    if (send_at > req.issue)
        ++queue_stalls_;
    u64 req_share = std::max<u64>(
        1, pkts_.stfimRequestBytes() / mtu_params_.requestsPerPackage);
    Cycle deadline = robust_.deadline(send_at);
    Cycle arrival = hmc_.hostToDevice(req_share, TrafficClass::PimPackage,
                                      send_at, route);
    if (robust_.timedOut(deadline, arrival)) {
        // The shader gave up at the deadline; flow control cancels the
        // in-flight package, so the MTU never works on it. The queue
        // slot frees when the cancellation lands.
        mtu.queueSlots[mtu.head] = deadline;
        mtu.head = (mtu.head + 1) % mtu.queueSlots.size();
        packages_ += 1;
        return hostFallback(req, deadline, stream, rec);
    }

    // 2. MTU pipeline: FIFO scheduler, address generation, texel
    //    fetches straight from the vaults (it has no cache; the DRAM
    //    dies are its local memory), then filtering.
    Cycle start = std::max(arrival, mtu.pipeFree);
    Cycle occupancy = std::max<Cycle>(
        1, (texels + mtu_params_.texelsPerCycle - 1) /
               mtu_params_.texelsPerCycle);
    Cycle addr_gen = occupancy;
    Cycle filter = occupancy;
    mtu.pipeFree = start + occupancy;

    Cycle t0 = start + addr_gen;

    Cycle mem_done = t0;
    for (u32 i = 0; i < rec.blockCount; ++i) {
        Addr b = stream.blocks[rec.blockOff + i];
        mem_done = std::max(
            mem_done, hmc_.internalAccess(
                          {b, gran, MemOp::Read, TrafficClass::Texture, t0}));
    }

    Cycle filtered_at = mem_done + filter;

    // 3. Response package back to the host shader: one package per
    //    quad carries requestsPerPackage filtered results behind one
    //    header; each request is charged its result plus a header
    //    share.
    u64 resp_share =
        pkts_.texResultBytes +
        std::max<u64>(1, pkts_.responseHeaderBytes /
                             mtu_params_.requestsPerPackage);
    Cycle complete = hmc_.deviceToHost(resp_share, TrafficClass::PimPackage,
                                       filtered_at, route);

    // Retire the queue slot.
    mtu.queueSlots[mtu.head] = filtered_at;
    mtu.head = (mtu.head + 1) % mtu.queueSlots.size();

    texels_ += texels;
    dram_blocks_ += rec.blockCount;
    packages_ += 2;
    addr_ops_ += texels;
    filter_ops_ += rec.filterOps;
    TEXPIM_PROF_CYCLES(prof::kZonePimPackage, filtered_at - start);
    TEXPIM_TRACE_COMPLETE("pim", "mtu_filter", 320 + req.clusterId, start,
                          filtered_at - start);
    recordRequest(req.wanted ? req.wanted : req.issue, complete);

    return {rec.color, complete};
}

} // namespace texpim
