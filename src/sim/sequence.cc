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
                          std::vector<Addr> &prev_blocks,
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

    // Block reuse versus the previous frame. Computed here because the
    // job's footprint dies with finishFrame, and because the recording
    // order is the frame order on both the serial and pipelined paths
    // (one prep thread records frames one at a time) — so `prev`
    // really is frame f-1 regardless of pipelining.
    std::vector<Addr> blocks = p.job->uniqueBlocks();
    p.uniqueBlocks = blocks.size();
    p.reusedPrev = intersectionCount(prev_blocks, blocks);
    prev_blocks = std::move(blocks);
    return p;
}

SimResult
SequenceRunner::finishOne(PendingFrame &p)
{
    sim_.resetFrameStats();
    SimResult r = sim_.finishSequenceFrame(*p.job, std::move(p.fb));
    sim_.noteFrameReuse(r, p.uniqueBlocks, p.reusedPrev);
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
        PendingFrame p =
            recordOne(wl, start_frame + f, seed, prev_blocks, textures);
        out.push_back(finishOne(p));
    }
    return out;
}

std::vector<SimResult>
SequenceRunner::runPipelined(const Workload &wl, unsigned num_frames,
                             unsigned start_frame, u64 seed,
                             unsigned depth)
{
    // One prep thread records frames ahead (scene build + functional
    // rasterization on the render_threads pool); the coordinating
    // thread finishes them strictly in order. `in_flight` counts
    // frames recorded or recording but not yet finished, bounding both
    // the queue and the prep thread's lead to gpu.pipeline_depth.
    //
    // Equivalence to runSerial: recordFrame touches no simulation
    // state, so overlapping frame k+1's recording with frame k's
    // replay reorders nothing the timing phase can observe, and the
    // in-order finishes replay the exact serial sequence.
    std::mutex mu;
    std::condition_variable can_record;
    std::condition_variable can_finish;
    std::deque<PendingFrame> ready;
    unsigned in_flight = 0;
    bool stop = false;
    std::exception_ptr prep_error;

    // texpim-lint: phase-root prep thread records frame k+1 while
    // frame k's serial replay runs on the caller thread
    std::thread prep([&] {
        try {
            std::vector<Addr> prev_blocks;
            std::shared_ptr<TextureStore> textures;
            for (unsigned f = 0; f < num_frames; ++f) {
                {
                    std::unique_lock<std::mutex> lk(mu);
                    can_record.wait(
                        lk, [&] { return in_flight < depth || stop; });
                    if (stop)
                        return;
                    ++in_flight;
                }
                PendingFrame p = recordOne(wl, start_frame + f, seed,
                                           prev_blocks, textures);
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
            out.push_back(finishOne(p));
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
