/**
 * @file
 * Conventional on-chip texture filtering (baseline and B-PIM): the
 * texture unit of each shader cluster filters locally, fetching texels
 * through a private L1, a shared L2 and the off-chip memory system
 * (GDDR5 for the baseline, HMC for B-PIM).
 */

#ifndef TEXPIM_GPU_HOST_TEXTURE_PATH_HH
#define TEXPIM_GPU_HOST_TEXTURE_PATH_HH

#include <memory>
#include <vector>

#include "cache/outstanding.hh"
#include "cache/tag_cache.hh"
#include "gpu/params.hh"
#include "gpu/texture_path.hh"
#include "mem/memory_system.hh"

namespace texpim {

/**
 * Record up to kQuadLanes conventionally filtered samples — the
 * phase-1 half the host and S-TFIM paths share. Each lane's fetch
 * trace is coalesced with `block_mask` (the host L1 line or the
 * S-TFIM MTU burst) and appended to `stream` as one TexSampleRec.
 */
void recordConventionalQuad(const TexRequest &base,
                            const SampleCoords *coords, unsigned count,
                            Addr block_mask, ReplayStream &stream,
                            SamplerScratch &scratch);

class HostTexturePath : public TexturePath
{
  public:
    HostTexturePath(const GpuParams &params, MemorySystem &mem);

    void sampleQuad(const TexRequest &base, const SampleCoords *coords,
                    unsigned count, ReplayStream &stream,
                    SamplerScratch &scratch) const override;
    void recordL1(unsigned cluster, float angle, ReplayStream &stream,
                  u32 idx) override;
    TexResponse replay(const TexRequest &req, const ReplayStream &stream,
                       u32 idx) override;

    /** Frame boundary: rewind pipeline timing, keep cache contents. */
    void beginFrame() override;

  private:
    GpuParams params_;
    MemorySystem &mem_;
    std::vector<std::unique_ptr<TagCache>> l1_;
    TagCache l2_;
    OutstandingMisses outstanding_;
    std::vector<Cycle> unit_free_; //!< per-cluster texture-unit pipeline

    StatCounter &l1_hits_;
    StatCounter &l1_misses_;
    StatCounter &l2_hits_;
    StatCounter &l2_misses_;
    StatCounter &l1_interframe_hits_;
    StatCounter &l2_interframe_hits_;
    StatCounter &mshr_merges_;
    StatCounter &texels_;
    StatCounter &lines_;
    StatCounter &addr_ops_;
    StatCounter &filter_ops_;
    StatCounter &aniso_samples_;
    StatAverage &lat_total_;
    StatAverage &lat_unit_wait_;
    StatAverage &lat_mem_;
};

} // namespace texpim

#endif // TEXPIM_GPU_HOST_TEXTURE_PATH_HH
