/**
 * @file
 * A-TFIM (§V): anisotropic filtering moves to the *front* of the
 * filter pipeline and into the HMC logic layer; bilinear and trilinear
 * stay on the host GPU so the texture caches keep capturing parent-
 * texel locality.
 *
 * Host side per texture request (§V-E walkthrough):
 *   1. the texture unit computes the parent-texel addresses as if
 *      anisotropic filtering were disabled;
 *   2. each parent is looked up in the angle-tagged L1/L2 texture
 *      caches — a hit whose stored camera angle differs from the
 *      fragment's by more than the configured threshold is treated as
 *      a miss so the parent is recalculated (§V-C);
 *   3. missing parents are packed by the Offloading Unit (hash-table
 *      base + offsets) into one package to the HMC;
 *   4. returned parent values feed the normal bilinear/trilinear
 *      filters and are cached together with their camera angle.
 *
 * Logic-layer side (Fig. 9): Texel Generator (16 address ALUs) expands
 * parents into child texels, Child Texel Consolidation merges
 * duplicate child fetches, the Parent Texel Buffer (256 entries) holds
 * in-flight parents, and the Combination Unit (16 filter ALUs)
 * averages fetched children into approximated parent texels.
 */

#ifndef TEXPIM_PIM_ATFIM_PATH_HH
#define TEXPIM_PIM_ATFIM_PATH_HH

#include <memory>
#include <vector>

#include "cache/tag_cache.hh"
#include "gpu/params.hh"
#include "gpu/texture_path.hh"
#include "mem/gap_resource.hh"
#include "mem/hmc.hh"
#include "pim/packages.hh"
#include "pim/parent_value_store.hh"
#include "pim/robustness.hh"

namespace texpim {

/** Logic-layer unit configuration (Table I / §V-D). */
struct AtfimParams
{
    unsigned texelGeneratorAlus = 16;  //!< Table I: 16 address ALUs
    unsigned combinationAlus = 16;     //!< Table I: 16 filtering ALUs
    unsigned parentTexelBufferEntries = 256;
    Cycle decomposeLatency = 2; //!< hash-table address regeneration
    Cycle composeLatency = 2;   //!< response grouping stage
    u64 childFetchGranularityBytes = 16; //!< HMC minimum block

    /**
     * Camera-angle threshold in radians (§V-C). The paper's default is
     * 0.01 pi (1.8 degrees, kThreshold001Pi); negative means never
     * recalculate (A-TFIM-no). Config key `atfim.angle_threshold_rad`.
     */
    float angleThresholdRad = 0.031415927f;

    // Ablation switches (the paper's design has both on).
    /** Child Texel Consolidation: merge duplicate child fetches. */
    bool consolidateChildren = true;
    /** Offloading Unit hash-table package compaction; off charges one
     *  full read-request-sized package per missing parent. */
    bool compactPackages = true;
};

class AtfimTexturePath : public TexturePath
{
  public:
    AtfimTexturePath(const GpuParams &gpu, const AtfimParams &atfim,
                     const PimPacketParams &pkts, HmcMemory &hmc,
                     const RobustnessParams &robustness = {});

    void sampleQuad(const TexRequest &base, const SampleCoords *coords,
                    unsigned count, ReplayStream &stream,
                    SamplerScratch &scratch) const override;
    void recordL1(unsigned cluster, float angle, ReplayStream &stream,
                  u32 idx) override;
    TexResponse replay(const TexRequest &req, const ReplayStream &stream,
                       u32 idx) override;

    u64 fallbacks() const override { return robust_.fallbacks(); }

    /** Frame boundary: rewind pipeline timing; caches and stored
     *  parent values persist so inter-frame angle reuse (§V-C's
     *  "parent texels from different frames") is exercised. */
    void beginFrame() override;

    void resetStats() override;

    /** Recalculations forced by the angle threshold (for reports). */
    u64 angleRecalcs() const;

    const AtfimParams &params() const { return atfim_; }

  private:
    /**
     * Degraded parent recalculation with B-PIM semantics: the already-
     * consolidated `child_blocks_` are fetched as ordinary host reads
     * over the external links starting at `start`, and the host ALUs
     * average the children into parent texels. The parent *values* are
     * the same either way (they were computed functionally up front),
     * so degradation never changes the image. Returns the cycle the
     * recalculated parents are ready.
     */
    Cycle hostFallbackFetch(Cycle start, u64 total_children);

    GpuParams gpu_;
    AtfimParams atfim_;
    PimPacketParams pkts_;
    HmcMemory &hmc_;
    PimRobustness robust_;

    std::vector<std::unique_ptr<TagCache>> l1_;
    TagCache l2_;
    std::vector<Cycle> unit_free_; //!< host texture-unit pipelines

    /**
     * Logic-layer pipeline occupancy: the Texel Generator and the
     * Combination Unit are 16-wide and deeply pipelined (§V-D), so an
     * offload group occupies the pipe for ceil(children/16) cycles;
     * decompose/compose and the vault reads are latency stages. The
     * Parent Texel Buffer bounds in-flight parents; its occupancy is
     * folded into the same reservation (256 entries never bind at the
     * offload rates the workloads produce — checked by stats).
     */
    GapResource logic_pipe_;

    /**
     * Functional store of computed parent-texel values, per L1 line.
     * A cache hit reuses the stored (possibly stale — that is the
     * approximation) value; any recalculation refreshes it.
     */
    ParentValueStore parent_values_;

    std::vector<Addr> child_blocks_; //!< replay-side consolidation buffer

    StatCounter &l1_hits_;
    StatCounter &l1_misses_;
    StatCounter &l1_angle_recalcs_;
    StatCounter &l2_hits_;
    StatCounter &l2_misses_;
    StatCounter &l2_angle_recalcs_;
    StatCounter &l1_interframe_hits_;
    StatCounter &l2_interframe_hits_;
    StatCounter &offload_packages_;
    StatCounter &parents_offloaded_;
    StatCounter &children_generated_;
    StatCounter &child_blocks_fetched_;
    StatCounter &texel_gen_ops_;
    StatCounter &combine_ops_;
    StatCounter &parents_;
    StatCounter &host_filter_ops_;
    StatCounter &addr_ops_;
    StatCounter &aniso_samples_;
    StatCounter &reuse_mismatches_;
    StatAverage &reuse_error_;
    StatCounter &fallback_child_blocks_;
};

} // namespace texpim

#endif // TEXPIM_PIM_ATFIM_PATH_HH
