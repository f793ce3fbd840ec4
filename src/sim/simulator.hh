/**
 * @file
 * Top-level rendering simulator: wires a GPU pipeline, a memory system
 * and a texture-filtering path according to the selected design point,
 * renders scenes, and collects the per-frame metrics the paper's
 * figures are built from.
 */

#ifndef TEXPIM_SIM_SIMULATOR_HH
#define TEXPIM_SIM_SIMULATOR_HH

#include <array>
#include <memory>

#include "gpu/params.hh"
#include "gpu/renderer.hh"
#include "mem/gddr5.hh"
#include "mem/hmc.hh"
#include "pim/atfim_path.hh"
#include "pim/packages.hh"
#include "pim/robustness.hh"
#include "pim/stfim_path.hh"
#include "power/energy_model.hh"
#include "scene/game_profiles.hh"
#include "sim/design.hh"

namespace texpim {

/** Everything Table I configures, for one design point. */
struct SimConfig
{
    Design design = Design::Baseline;

    /** Force anisotropic filtering off (the Fig. 4 experiment). */
    bool disableAniso = false;

    GpuParams gpu{};
    Gddr5Params gddr5{};
    HmcParams hmc{};
    MtuParams mtu{};
    AtfimParams atfim{};
    PimPacketParams packets{};
    EnergyParams energy{};
    RobustnessParams robustness{};

    /** Read the keys in knownConfigKeys() that configure a simulation
     *  (design, A-TFIM threshold, aniso, gpu.*, fault_*); every other
     *  Table I parameter keeps its default and is set from C++. */
    static SimConfig fromConfig(const Config &cfg);
};

/** Results of rendering one frame under one design. */
struct SimResult
{
    FrameStats frame{};

    /** Texture-filtering cycles (sum of request latencies; ratios of
     *  this quantity are the paper's "texture filtering speedup"). */
    u64 textureFilterCycles = 0;

    /** Off-chip bytes by traffic class (Fig. 2 / Fig. 12). */
    std::array<u64, kNumTrafficClasses> offChipBytesByClass{};
    u64 offChipTotalBytes = 0;
    u64 textureTrafficBytes = 0; //!< texture + PIM packages (Fig. 12)

    EnergyBreakdown energy{};
    u64 angleRecalcs = 0; //!< A-TFIM threshold-forced recalculations

    // Inter-frame reuse accounting (§V-C). interFrameTagHits is filled
    // for every frame (always zero on cold renderScene frames); the
    // seq* block counts are filled by renderSequence from the recorded
    // replay streams' block footprints.
    u64 interFrameTagHits = 0;   //!< texture L1/L2 hits on lines warm
                                 //!< from an earlier frame
    u64 seqUniqueBlocks = 0;     //!< distinct texel blocks this frame
    u64 seqBlocksReusedPrev = 0; //!< of those, also touched by the
                                 //!< previous frame

    // Fault/robustness accounting (all 0 in fault-free runs).
    u64 crcErrors = 0;    //!< link packets that took a CRC error
    u64 linkRetries = 0;  //!< link-retry retransmissions
    u64 pimFallbacks = 0; //!< offloads degraded to host-side filtering

    /** The rendered image (for PSNR in §VII-D). */
    std::shared_ptr<FrameBuffer> image;
};

class JsonWriter;

/** Serialize one frame's results as a JSON object into `w` (for
 *  stats_out files and bench metric emitters). */
void writeSimResultJson(JsonWriter &w, const SimResult &r);

class SimContext;
class TrafficAttribution;

class RenderingSimulator
{
  public:
    /**
     * Builds the pipeline for `cfg`. The simulator belongs to the
     * SimContext current on the constructing thread: its components
     * register their statistics and fault sites there, and every
     * render call must run under that same context (asserted), which
     * the ExperimentRunner guarantees by wrapping each job in one
     * context from construction to teardown.
     */
    explicit RenderingSimulator(const SimConfig &cfg);
    ~RenderingSimulator();

    /** Render one frame of `scene` cold (fresh caches and memory
     *  state), as the paper renders its selected frames. */
    SimResult renderScene(const Scene &scene);

    /**
     * Render `num_frames` consecutive frames of a workload's camera
     * path with *warm* state: texture caches, A-TFIM parent values and
     * DRAM row state persist across frames while per-frame timing
     * restarts. This exercises §V-C's inter-frame case — "parent
     * texels from different frames have the same fetching address but
     * different camera angles" — which cold single frames cannot.
     *
     * At gpu.pipeline_depth > 1 frame k+1's functional setup (scene
     * build, geometry, tile binning) runs on one other thread while
     * frame k streams through its record + replay; results are
     * bit-identical at every depth. The level's TextureStore is built
     * once by the first frame and adopted by the rest. Per frame, the
     * distinct texel blocks touched and how many the previous frame
     * also touched land in SimResult and the "sequence" stat group.
     */
    std::vector<SimResult> renderSequence(const Workload &wl,
                                          unsigned num_frames,
                                          unsigned start_frame = 0,
                                          u64 seed = 0x7e01d);

    // --- Split frame entry points (the inter-frame pipeline) ---
    //
    // renderSequence overlaps frame k+1's functional setup with frame
    // k's streamed record + replay through these. They are also usable
    // directly; renderSequence is the packaged driver.

    /** Build the pipeline once and enable per-tile block-footprint
     *  collection (sequence reuse accounting). Call before the first
     *  recordSequenceFrame of a sequence. */
    void beginSequence();

    /** The per-frame scene transform renderScene applies before
     *  rendering (aniso override, A-TFIM filter-mode coercion). Pure;
     *  callable from any thread. It must run *before* the functional
     *  phase because the filter mode changes what sampling computes. */
    Scene prepareFrameScene(const Scene &scene) const;

    /** Per-frame statistics reset (memory + texture path), exactly
     *  what renderSequence does between frames. Coordinating thread
     *  only; must not run while a finishSequenceFrame is in flight. */
    void resetFrameStats();

    /**
     * Functional setup of one frame (a sequence frame or renderScene's
     * cold one): geometry and tile binning (Renderer::recordFrame).
     * Touches no simulation state, so it may run on a set-up thread
     * while the coordinating thread finishes an earlier frame.
     * `scene` must already be prepareFrameScene'd, and scene and fb
     * must outlive the returned job.
     */
    std::unique_ptr<Renderer::FrameJob>
    recordSequenceFrame(const Scene &scene, FrameBuffer &fb);

    /**
     * The rest of one recorded frame: attribution install, the
     * streamed tile record + timing replay, and result assembly.
     * Coordinating thread only, and jobs must be finished in recording
     * order — then every SimResult is bit-identical to the unpipelined
     * sequence. Consumes the job; its block census
     * (FrameJob::uniqueBlocks()) is available only afterwards.
     */
    SimResult finishSequenceFrame(Renderer::FrameJob &job,
                                  std::shared_ptr<FrameBuffer> fb);

    const SimConfig &config() const { return cfg_; }

    /** The memory system of the last renderScene call (for stats). */
    const MemorySystem &memory() const;
    /** The texture path of the last renderScene call. */
    const TexturePath &texturePath() const;

    /**
     * Traffic attribution of the last rendered frame, or nullptr.
     * Attribution is collected automatically whenever the profiler is
     * enabled (Profiler::active()) when a frame starts: the memory
     * system's TrafficSink is pointed at a fresh TrafficAttribution
     * mapped over the scene's textures.
     */
    const TrafficAttribution *attribution() const { return attrib_.get(); }

  private:
    void build();

    /** Point the memory system's TrafficSink at a fresh, texture-
     *  mapped TrafficAttribution when the profiler is active (else
     *  clear it). Coordinating thread only. */
    void installAttribution(const Scene &scene);

    /** The post-render tail of finishSequenceFrame, the one frame
     *  tail: texture-filter cycles, traffic meters, energy inputs,
     *  fault and inter-frame-reuse counters into `r`. */
    void finalizeResult(SimResult &r);

    /** Record one finished sequence frame's block-reuse numbers into
     *  `r`, the "sequence" stat group and the frame's attribution. */
    void noteFrameReuse(SimResult &r, u64 unique_blocks,
                        u64 reused_prev);

    SimConfig cfg_;
    SimContext &ctx_; //!< context captured at construction
    std::unique_ptr<Gddr5Memory> gddr5_;
    std::unique_ptr<HmcMemory> hmc_;
    std::unique_ptr<TexturePath> tex_path_;
    std::unique_ptr<Renderer> renderer_;
    std::unique_ptr<TrafficAttribution> attrib_;
    /** "sequence" stat group (frames, unique_blocks, ...), created on
     *  the first beginSequence so single-frame runs don't carry it.
     *  Lives on the simulator: it must outlive the sequence for
     *  post-run stat export. */
    struct SequenceStats;
    std::unique_ptr<SequenceStats> seq_stats_;
    MemorySystem *mem_ = nullptr;
};

} // namespace texpim

#endif // TEXPIM_SIM_SIMULATOR_HH
