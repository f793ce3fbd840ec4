/**
 * @file
 * SequenceRunner: the camera-path sequence driver behind
 * RenderingSimulator::renderSequence, with inter-frame phase
 * pipelining.
 *
 * The renderer splits a frame into a pure functional setup
 * (recordFrame: geometry, tile binning; touches no simulation state)
 * and finishFrame, which streams the tiles from the gpu.render_threads
 * record pool into the serial timing replay. Across a sequence the two
 * pipeline: while frame k streams on the coordinating thread and the
 * pool, a prep thread builds frame k+1's scene and sets it up.
 * gpu.pipeline_depth bounds the frames in flight (set up or being set
 * up but not yet finished), and the coordinating thread always
 * finishes frames in order — so images, cycle counts and statistics
 * are bit-identical to the unpipelined sequence by construction (the
 * functional setup cannot observe or perturb the timing phase).
 *
 * Pipelining engages when gpu.pipeline_depth > 1 and the sequence has
 * more than one frame; otherwise the serial path runs.
 *
 * The level's textures depend only on the game and the content seed,
 * so the runner synthesizes them once per run(): the first frame's
 * scene builds the TextureStore and later frames adopt it (see
 * buildGameScene). Texture ids and simulated addresses are the same
 * either way, so results are bit-identical to building every frame
 * from scratch.
 *
 * The runner also accounts inter-frame reuse: per frame, the distinct
 * texel blocks touched (the census, taken once the frame is finished,
 * because its tiles record during finishFrame), how many of them the
 * previous frame also touched, and the texture-path tag-cache hits on lines warm from an
 * earlier frame (see TagCache epochs). Exported per frame on
 * SimResult / the frame's TrafficAttribution and accumulated in the
 * "sequence" stat group.
 */

#ifndef TEXPIM_SIM_SEQUENCE_HH
#define TEXPIM_SIM_SEQUENCE_HH

#include <memory>
#include <vector>

#include "scene/game_profiles.hh"
#include "sim/simulator.hh"

namespace texpim {

class SequenceRunner
{
  public:
    /** The simulator to drive; must outlive the runner. */
    explicit SequenceRunner(RenderingSimulator &sim) : sim_(sim) {}

    /**
     * Render `num_frames` consecutive frames of `wl`'s camera path
     * with warm inter-frame state (renderSequence semantics). Results
     * are bit-identical for every gpu.pipeline_depth setting.
     */
    std::vector<SimResult> run(const Workload &wl, unsigned num_frames,
                               unsigned start_frame, u64 seed);

  private:
    /** A frame whose functional setup has run: everything the timing
     *  phase needs, owned so the scene and framebuffer outlive the
     *  job across the thread handoff. */
    struct PendingFrame
    {
        std::unique_ptr<Scene> scene;
        std::shared_ptr<FrameBuffer> fb;
        std::unique_ptr<Renderer::FrameJob> job;
    };

    /** Build + prepare the scene for `frame` and run its functional
     *  setup. The scene adopts `textures`, the level's store from the
     *  sequence's first frame; when null (first frame) the scene
     *  builds it and `textures` keeps it. Runs on the prep thread when
     *  pipelining. */
    PendingFrame recordOne(const Workload &wl, unsigned frame, u64 seed,
                           std::shared_ptr<TextureStore> &textures);

    /** Reset per-frame stats, stream and finalize one set-up frame,
     *  then take its block census and reuse against `prev_blocks`
     *  (updated in place). Coordinating thread only, in frame order. */
    SimResult finishOne(PendingFrame &p, std::vector<Addr> &prev_blocks);

    /** Unpipelined sequence (setup and finish alternate on the
     *  coordinating thread). */
    std::vector<SimResult> runSerial(const Workload &wl,
                                     unsigned num_frames,
                                     unsigned start_frame, u64 seed);

    /** The inter-frame pipeline: a prep thread sets frames up ahead,
     *  bounded by gpu.pipeline_depth; finishes stay in order. */
    std::vector<SimResult> runPipelined(const Workload &wl,
                                        unsigned num_frames,
                                        unsigned start_frame, u64 seed,
                                        unsigned depth);

    RenderingSimulator &sim_;
};

} // namespace texpim

#endif // TEXPIM_SIM_SEQUENCE_HH
