/**
 * @file
 * S-TFIM (§IV): all texture units move from the host GPU into the HMC
 * logic layer as Memory Texture Units (MTUs), one per shader cluster.
 *
 * Every texture request becomes a package shipped over the external
 * links (4x a normal read request), is buffered in the MTU's 256-entry
 * request queue, filtered against DRAM directly (no texture caches
 * anywhere — the host lost its L1/L2, the MTU never had one), and the
 * filtered texture returns as a response package. The package traffic
 * and the loss of on-chip texel reuse are exactly the pathologies the
 * paper measures for this design.
 */

#ifndef TEXPIM_PIM_STFIM_PATH_HH
#define TEXPIM_PIM_STFIM_PATH_HH

#include <vector>

#include "gpu/params.hh"
#include "gpu/texture_path.hh"
#include "mem/hmc.hh"
#include "pim/packages.hh"
#include "pim/robustness.hh"

namespace texpim {

/** MTU configuration (Table I: 4 address ALUs, 8 filtering ALUs,
 *  256-entry texture request queue per §IV/§V-D). */
struct MtuParams
{
    unsigned addressAlus = 4;
    unsigned filterAlus = 8;
    unsigned requestQueueEntries = 256;
    u64 fetchGranularityBytes = 16; //!< HMC minimum-block DRAM burst

    /** Pipeline throughput, as for the host texture unit (each
     *  address ALU emits a 2x2 footprint per cycle). */
    unsigned texelsPerCycle = 16;

    /**
     * Texture requests per request/response package. The paper models
     * one offloading package (4x a normal read request) per texture
     * request, which is what reproduces Fig. 12's 2.79x S-TFIM
     * texture-traffic blowup; raise this to study quad-batched
     * packaging (bench/extensions does).
     */
    unsigned requestsPerPackage = 1;
};

class StfimTexturePath : public TexturePath
{
  public:
    StfimTexturePath(const GpuParams &gpu, const MtuParams &mtu,
                     const PimPacketParams &pkts, HmcMemory &hmc,
                     const RobustnessParams &robustness = {});

    void sampleQuad(const TexRequest &base, const SampleCoords *coords,
                    unsigned count, ReplayStream &stream,
                    SamplerScratch &scratch) const override;
    TexResponse replay(const TexRequest &req, const ReplayStream &stream,
                       u32 idx) override;

    /** Frame boundary: rewind MTU queues and pipelines. */
    void beginFrame() override;

    u64 fallbacks() const override { return robust_.fallbacks(); }

    void
    resetStats() override
    {
        TexturePath::resetStats();
        robust_.stats().resetAll();
    }

  private:
    /** One Memory Texture Unit in the logic layer. */
    struct Mtu
    {
        std::vector<Cycle> queueSlots; //!< ring: per-slot completion
        size_t head = 0;
        Cycle pipeFree = 0;
    };

    /**
     * Degraded completion with B-PIM semantics, entered from `start`:
     * the texel blocks are fetched with ordinary host reads over the
     * external links and filtered by the host shader cluster. The
     * color is the same `sampleConventionalQuad` result as the
     * offload path, so degradation never changes the image.
     */
    TexResponse hostFallback(const TexRequest &req, Cycle start,
                             const ReplayStream &stream,
                             const TexSampleRec &rec);

    GpuParams gpu_;
    MtuParams mtu_params_;
    PimPacketParams pkts_;
    HmcMemory &hmc_;
    PimRobustness robust_;
    std::vector<Mtu> mtus_; //!< one private MTU per cluster (§IV)

    StatCounter &queue_stalls_;
    StatCounter &texels_;
    StatCounter &dram_blocks_;
    StatCounter &packages_;
    StatCounter &addr_ops_;
    StatCounter &filter_ops_;
    StatCounter &aniso_samples_;
    StatCounter &fallback_host_blocks_;
};

} // namespace texpim

#endif // TEXPIM_PIM_STFIM_PATH_HH
