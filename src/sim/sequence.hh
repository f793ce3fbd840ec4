/**
 * @file
 * SequenceRunner: the camera-path sequence driver behind
 * RenderingSimulator::renderSequence, with inter-frame phase
 * pipelining.
 *
 * The two-phase renderer splits a frame into a pure functional phase
 * (recordFrame: rasterize + sample into replay streams, touches no
 * simulation state) and a serial timing phase (finishFrame: traffic,
 * replay, accounting). Across a sequence those phases pipeline: while
 * frame k replays on the coordinating thread, frame k+1 rasterizes on
 * the gpu.render_threads worker pool from a prep thread.
 * gpu.pipeline_depth bounds the frames in flight (recorded or
 * recording but not yet finished), and the coordinating thread always
 * finishes frames in recording order — so images, cycle counts and
 * statistics are bit-identical to the unpipelined sequence by
 * construction (the functional phase cannot observe or perturb the
 * timing phase).
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
 * texel blocks touched, how many of them the previous frame also
 * touched, and the texture-path tag-cache hits on lines warm from an
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
    /** A frame whose functional phase has run: everything the timing
     *  phase needs, owned so the scene and framebuffer outlive the
     *  job across the thread handoff. */
    struct PendingFrame
    {
        std::unique_ptr<Scene> scene;
        std::shared_ptr<FrameBuffer> fb;
        std::unique_ptr<Renderer::FrameJob> job;
        u64 uniqueBlocks = 0;
        u64 reusedPrev = 0;
    };

    /** Build + prepare the scene for `frame`, record its functional
     *  phase and compute block reuse against `prev_blocks` (updated
     *  in place). The scene adopts `textures`, the level's store from
     *  the sequence's first frame; when null (first frame) the scene
     *  builds it and `textures` keeps it. Runs on the prep thread when
     *  pipelining. */
    PendingFrame recordOne(const Workload &wl, unsigned frame, u64 seed,
                           std::vector<Addr> &prev_blocks,
                           std::shared_ptr<TextureStore> &textures);

    /** Reset per-frame stats, replay and finalize one recorded frame.
     *  Coordinating thread only, in recording order. */
    SimResult finishOne(PendingFrame &p);

    /** Unpipelined two-phase sequence (record and finish alternate on
     *  the coordinating thread). */
    std::vector<SimResult> runSerial(const Workload &wl,
                                     unsigned num_frames,
                                     unsigned start_frame, u64 seed);

    /** The inter-frame pipeline: a prep thread records ahead, bounded
     *  by gpu.pipeline_depth; finishes stay in order. */
    std::vector<SimResult> runPipelined(const Workload &wl,
                                        unsigned num_frames,
                                        unsigned start_frame, u64 seed,
                                        unsigned depth);

    RenderingSimulator &sim_;
};

} // namespace texpim

#endif // TEXPIM_SIM_SEQUENCE_HH
