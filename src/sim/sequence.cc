#include "sim/sequence.hh"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace texpim {

namespace {

/** Size of the intersection of two sorted-unique address lists. */
u64
intersectionCount(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    u64 n = 0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib)
            ++ia;
        else if (*ib < *ia)
            ++ib;
        else {
            ++n;
            ++ia;
            ++ib;
        }
    }
    return n;
}

} // namespace

std::vector<SimResult>
SequenceRunner::run(const Workload &wl, unsigned num_frames,
                    unsigned start_frame, u64 seed)
{
    TEXPIM_ASSERT(num_frames > 0, "empty sequence");
    sim_.beginSequence();

    unsigned depth = sim_.config().gpu.pipelineDepth;
    if (depth <= 1 || num_frames <= 1)
        return runSerial(wl, num_frames, start_frame, seed);
    return runPipelined(wl, num_frames, start_frame, seed, depth);
}

SequenceRunner::PendingFrame
SequenceRunner::recordOne(const Workload &wl, unsigned frame, u64 seed,
                          std::shared_ptr<TextureStore> &textures)
{
    PendingFrame p;
    // prepareFrameScene must precede recording: the filter-mode
    // coercion changes what functional sampling computes.
    Scene built = buildGameScene(wl, frame, seed, textures);
    textures = built.textures;
    p.scene = std::make_unique<Scene>(sim_.prepareFrameScene(built));
    p.fb = std::make_shared<FrameBuffer>(p.scene->settings.width,
                                         p.scene->settings.height);
    p.job = sim_.recordSequenceFrame(*p.scene, *p.fb);
    return p;
}

SimResult
SequenceRunner::finishOne(PendingFrame &p, std::vector<Addr> &prev_blocks)
{
    sim_.resetFrameStats();
    SimResult r = sim_.finishSequenceFrame(*p.job, std::move(p.fb));

    // Block reuse versus the previous frame. The tiles record while
    // the frame finishes, so the census exists only now; frames finish
    // in order on both the serial and pipelined paths, so `prev`
    // really is frame f-1 regardless of pipelining.
    std::vector<Addr> blocks = p.job->uniqueBlocks();
    u64 reused = intersectionCount(prev_blocks, blocks);
    sim_.noteFrameReuse(r, blocks.size(), reused);
    prev_blocks = std::move(blocks);
    return r;
}

std::vector<SimResult>
SequenceRunner::runSerial(const Workload &wl, unsigned num_frames,
                          unsigned start_frame, u64 seed)
{
    std::vector<SimResult> out;
    out.reserve(num_frames);
    std::vector<Addr> prev_blocks;
    std::shared_ptr<TextureStore> textures;
    for (unsigned f = 0; f < num_frames; ++f) {
        PendingFrame p = recordOne(wl, start_frame + f, seed, textures);
        out.push_back(finishOne(p, prev_blocks));
    }
    return out;
}

std::vector<SimResult>
SequenceRunner::runPipelined(const Workload &wl, unsigned num_frames,
                             unsigned start_frame, u64 seed,
                             unsigned depth)
{
    // One prep thread sets frames up ahead (scene build + geometry and
    // tile binning); the coordinating thread finishes them strictly in
    // order, streaming each frame's tiles from the render_threads
    // record pool into its replay. `in_flight` counts frames set up or
    // being set up but not yet finished, bounding both the queue and
    // the prep thread's lead to gpu.pipeline_depth.
    //
    // Equivalence to runSerial: recordFrame touches no simulation
    // state, so overlapping frame k+1's setup with frame k's replay
    // reorders nothing the timing phase can observe, and the in-order
    // finishes replay the exact serial sequence.
    std::mutex mu;
    std::condition_variable can_record;
    std::condition_variable can_finish;
    std::deque<PendingFrame> ready;
    bool stop = false;
    std::exception_ptr prep_error;

    // The first frame is set up here: the coordinating thread has to
    // wait for it anyway, and it builds the level's textures. Built on
    // a prep thread, they landed in that thread's allocator arena,
    // which the next run's prep thread need not get back, so repeated
    // sequences kept one freed texture set per arena (peak RSS 447 ->
    // 691 MiB over texbench's path-baseline).
    std::shared_ptr<TextureStore> textures;
    ready.push_back(recordOne(wl, start_frame, seed, textures));
    unsigned in_flight = 1;

    // texpim-lint: phase-root prep thread sets frame k+1 up while
    // frame k streams through the caller thread's replay
    std::thread prep([&] {
        try {
            for (unsigned f = 1; f < num_frames; ++f) {
                {
                    std::unique_lock<std::mutex> lk(mu);
                    can_record.wait(
                        lk, [&] { return in_flight < depth || stop; });
                    if (stop)
                        return;
                    ++in_flight;
                }
                PendingFrame p =
                    recordOne(wl, start_frame + f, seed, textures);
                {
                    std::lock_guard<std::mutex> lk(mu);
                    ready.push_back(std::move(p));
                }
                can_finish.notify_one();
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            prep_error = std::current_exception();
            can_finish.notify_one();
        }
    });

    std::vector<SimResult> out;
    out.reserve(num_frames);
    std::vector<Addr> prev_blocks;
    try {
        for (unsigned f = 0; f < num_frames; ++f) {
            PendingFrame p;
            {
                std::unique_lock<std::mutex> lk(mu);
                can_finish.wait(
                    lk, [&] { return !ready.empty() || prep_error; });
                if (prep_error)
                    break;
                p = std::move(ready.front());
                ready.pop_front();
            }
            out.push_back(finishOne(p, prev_blocks));
            {
                std::lock_guard<std::mutex> lk(mu);
                --in_flight;
            }
            can_record.notify_one();
        }
    } catch (...) {
        // Unblock the prep thread before propagating, or join() would
        // deadlock on a full pipeline.
        {
            std::lock_guard<std::mutex> lk(mu);
            stop = true;
        }
        can_record.notify_one();
        prep.join();
        throw;
    }
    prep.join();
    if (prep_error)
        std::rethrow_exception(prep_error);
    return out;
}

} // namespace texpim
