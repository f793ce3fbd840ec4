/**
 * @file
 * GPU configuration mirroring Table I of the paper.
 */

#ifndef TEXPIM_GPU_PARAMS_HH
#define TEXPIM_GPU_PARAMS_HH

#include "cache/tag_cache.hh"
#include "common/config.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace texpim {

struct GpuParams
{
    // Table I: host GPU.
    unsigned clusters = 16;           //!< "Number of cluster: 16"
    unsigned shadersPerCluster = 16;  //!< "Unified shader per cluster: 16"
    unsigned tileSize = 16;           //!< "16x16 tile size"
    double frequencyGHz = 1.0;        //!< "GPU frequency: 1 GHz"

    // Table I: texture units (one per cluster = 16 total for baseline).
    unsigned texAddressAlus = 4; //!< "4 address ALUs"
    unsigned texFilterAlus = 8;  //!< "8 filtering ALUs"

    /**
     * Texels the unit's pipeline consumes per cycle: each address ALU
     * generates one 2x2 bilinear footprint per cycle (4 texels), so 4
     * ALUs sustain 16 texels/cycle; the filter stage matches with
     * fused lerp trees. Determines the unit's occupancy per request.
     */
    unsigned texUnitTexelsPerCycle = 16;

    CacheParams texL1{16 * KiB, 16, 64};  //!< "16KB, 16-way"
    CacheParams texL2{128 * KiB, 16, 64}; //!< "128KB, 16-way"
    Cycle texL1HitLatency = 4;
    Cycle texL2HitLatency = 16;

    /** Outstanding texture requests a cluster can hide behind compute
     *  (massive multithreading latency tolerance). */
    unsigned maxInflightTexRequests = 32;

    // Shader cost model.
    unsigned vertexShaderCycles = 12; //!< per vertex on one shader
    unsigned fragmentShaderCycles = 8; //!< per fragment on one shader
    unsigned triangleSetupCycles = 8;  //!< per triangle, fixed function

    /**
     * Cluster-cycles each shaded fragment occupies the non-texture
     * fragment pipeline (interpolators, shader issue, ROP slot). This
     * carries the frame's non-texture time share; 5 reproduces the
     * baseline texture/other split implied by the paper's Fig. 10 vs
     * Fig. 11 (a 3.97x texture-filtering speedup yielding a 43%
     * rendering speedup means ~60% of baseline frame time is not
     * texture-bound).
     */
    unsigned fragmentPipelineCycles = 6;

    /**
     * Tile recorders of the two-phase renderer: the coordinating
     * thread plus renderThreads - 1 pool threads that record tiles
     * while the serial timing replay consumes them through the
     * streaming window. 1 records each tile inline just before its
     * replay. Every value produces bit-identical framebuffers, cycle
     * counts and statistics — the knob only trades host wall clock.
     * Must be at least 1. Config key `gpu.render_threads`.
     */
    unsigned renderThreads = 1;

    /**
     * Tile-issue schedule for the timing replay. `Horizon` (the
     * default) picks the cluster whose next texture request would
     * issue earliest, keeping the shared memory system in near-global
     * time order. `RoundRobin` pins the functional processing order:
     * clusters take tiles in fixed round-robin. The horizon schedule
     * feeds completion times back into cluster selection, so *any*
     * timing perturbation (a faulted link, a different link latency)
     * can reorder the request stream — which changes A-TFIM's shared
     * angle-cache reuse and hence its image. With the pinned schedule
     * the request stream, and therefore the image, is invariant under
     * timing perturbations, at a small cost in timing fidelity (shared
     * resources see rougher time order). Use it on *both* sides of an
     * image A/B across fault knobs. Config key `gpu.schedule` =
     * "horizon" | "rr".
     */
    enum class Schedule { Horizon, RoundRobin };
    Schedule schedule = Schedule::Horizon;

    /**
     * Inter-frame pipelining for sequence rendering
     * (RenderingSimulator::renderSequence). At any value above 1,
     * while frame k streams through the record pool and the main
     * thread's timing replay, one other thread builds and sets up
     * (geometry, tile binning) frame k+1; a longer lead never paid,
     * as set-up takes 2-3% of a frame's finish. 1 (the default) renders
     * frames strictly one after another. Replay always consumes frames
     * in order, so images, cycles and statistics are bit-identical at
     * any depth. Must be at least 1. Config key `gpu.pipeline_depth`.
     */
    unsigned pipelineDepth = 1;

    static GpuParams fromConfig(const Config &cfg);
};

/**
 * The full set of configuration keys the simulator and CLI accept —
 * the list `Config::checkKnownKeys` validates against, kept in sync
 * with the README configuration reference by texpim-lint rule C1.
 */
const std::vector<std::string> &knownConfigKeys();

} // namespace texpim

#endif // TEXPIM_GPU_PARAMS_HH
