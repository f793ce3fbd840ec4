/**
 * @file
 * The texture-filtering path abstraction.
 *
 * A TexturePath answers one texture request functionally (the filtered
 * color) and temporally (the cycle the shader receives it). The four
 * design points of the paper are four implementations / wirings:
 *
 *   Baseline  HostTexturePath over Gddr5Memory
 *   B-PIM     HostTexturePath over HmcMemory (host-side access)
 *   S-TFIM    StfimTexturePath: MTUs in the HMC logic layer (src/pim)
 *   A-TFIM    AtfimTexturePath: anisotropic-first in the HMC (src/pim)
 */

#ifndef TEXPIM_GPU_TEXTURE_PATH_HH
#define TEXPIM_GPU_TEXTURE_PATH_HH

#include "common/stats.hh"
#include "gpu/replay.hh"
#include "tex/sampler.hh"

namespace texpim {

/** One texture request from a unified shader. */
struct TexRequest
{
    const Texture *tex = nullptr;
    SampleCoords coords{};
    FilterMode mode = FilterMode::Trilinear;
    unsigned maxAniso = 16;
    unsigned clusterId = 0;

    /** Cycle the request actually enters the texture path (after
     *  flow control on in-flight requests). */
    Cycle issue = 0;

    /**
     * Cycle the shader *produced* the request. The paper counts
     * texture-filtering latency "from the time when a shader sends
     * out the texel fetching request" (§VII-A), which includes any
     * wait for a texture-path slot — so latency statistics measure
     * from here.
     */
    Cycle wanted = 0;
};

/** The filtered texture sample handed back to the shader. */
struct TexResponse
{
    ColorF color{};
    Cycle complete = 0;
};

// An A-TFIM sample's record-side L1 outcomes are u8 masks with one
// bit per parent (TexSampleRec::l1Hits and its siblings).
static_assert(kQuadMaxParents <= 8);

// texpim-lint: pool-shared one path object serves every phase-1 worker
class TexturePath
{
  public:
    explicit TexturePath(std::string name)
        : stats_(std::move(name)),
          latency_(stats_.histogram(
              "latency", 0.0, kLatencyHistHi, kLatencyHistBuckets,
              "per-request filtering latency (request to final texture "
              "output), cycles"))
    {
    }
    virtual ~TexturePath() = default;

    TexturePath(const TexturePath &) = delete;
    TexturePath &operator=(const TexturePath &) = delete;

    /**
     * Phase 1 — functional half. Filter up to kQuadLanes requests that
     * share everything but coordinates (the renderer batches the 2x2
     * fragment quads of one triangle; `base` supplies the shared
     * texture / mode / maxAniso / cluster) through the quad-SoA
     * samplers and append one TexSampleRec (plus its block slice and,
     * for A-TFIM, its parents) per lane, in lane order, to the end of
     * `stream`. The renderer passes the tile's record stream and
     * points its FragRecords at the appended samples in place (lane l
     * is the stream's sample count before the call, plus l), so a
     * sample is never copied after this call (the renderer's
     * avg_aniso_ratio reads the base sample's anisoRatio there too).
     * Pure: touches no caches, pipelines, statistics or
     * memory-system state, so concurrent calls from
     * phase-1 worker threads are safe (each worker owns its stream
     * and scratch), and so is a call concurrent with replay() or with
     * another cluster's recordL1(), which the renderer's tile
     * streaming window makes every frame: it reads nothing either
     * writes.
     */
    // texpim-lint: phase-root functional phase-1 entry; every override
    // runs concurrently on the render pool
    virtual void sampleQuad(const TexRequest &base,
                            const SampleCoords *coords, unsigned count,
                            ReplayStream &stream,
                            SamplerScratch &scratch) const = 0;

    /**
     * Phase 1 — the cluster's private texture L1. Run record `idx` of
     * `stream` (appended by sampleQuad() for `cluster`) through
     * cluster `cluster`'s L1 at camera angle `angle`, and store the
     * outcomes in the record (TexSampleRec::l1Hits and its siblings)
     * for replay() to account. Writes only that L1 and the record, so
     * calls for distinct clusters may run concurrently; calls for one
     * cluster must come in the order replay() would have looked the
     * samples up: its tiles in list order, fragments in raster order,
     * base sample before detail. The renderer's tile streaming window
     * serialises them so. Paths without a texture L1 record nothing.
     */
    virtual void
    recordL1(unsigned /*cluster*/, float /*angle*/,
             ReplayStream & /*stream*/, u32 /*idx*/)
    {
    }

    /**
     * Phase 2 — timing half. Replay record `idx` of `stream` through
     * the L2, pipelines and memory system, updating every statistic
     * (the L1 outcomes come from recordL1(), which must have run on
     * the record). Serial only. `req` supplies the timing context
     * (clusterId / issue / wanted) and the camera angle; `req.tex` may
     * be null — the functional work already happened in sampleQuad().
     */
    // texpim-lint: replay-root per-request timing entry; every override
    // updates stats through references held since construction
    virtual TexResponse replay(const TexRequest &req,
                               const ReplayStream &stream, u32 idx) = 0;

    /** Prepare for a new frame (reset transient state, keep caches). */
    virtual void beginFrame() {}

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    u64 requests() const { return requests_; }

    /** Requests degraded from a PIM offload to host-side filtering by
     *  the robustness policy; always 0 for paths without an offload. */
    virtual u64 fallbacks() const { return 0; }

    /** Sum over requests of (complete - issue): the paper's texture
     *  filtering latency (from texel-fetch request to final texture
     *  output, §VII-A). Speedups compare these sums. */
    u64 latencySum() const { return latency_sum_; }

    virtual void
    resetStats()
    {
        stats_.resetAll();
        requests_ = 0;
        latency_sum_ = 0;
    }

  protected:
    static constexpr double kLatencyHistHi = 8192.0;
    static constexpr unsigned kLatencyHistBuckets = 64;

    void
    recordRequest(Cycle issue, Cycle complete)
    {
        ++requests_;
        latency_sum_ += complete - issue;
        latency_.sample(double(complete - issue));
    }

    StatGroup stats_;

  private:
    StatHistogram &latency_;
    u64 requests_ = 0;
    u64 latency_sum_ = 0;
};

} // namespace texpim

#endif // TEXPIM_GPU_TEXTURE_PATH_HH
