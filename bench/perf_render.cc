/**
 * @file
 * Perf bench for the two-phase renderer: render one Doom3 frame at
 * several `render_threads` settings, report frames/sec and the
 * phase-1/phase-2 wall-clock breakdown, and write BENCH_PERF.json.
 *
 * The scene is built once and shared; each timed run constructs a
 * fresh simulator in its own SimContext and times renderScene() only,
 * so the numbers measure the renderer, not procedural content
 * generation. Every run's image hash is compared against the first —
 * the bench exits non-zero if any thread count changes the image,
 * so a perf run doubles as a bit-identity smoke test.
 *
 * Usage:
 *   perf_render [width=640] [height=480] [frame=3] [design=baseline]
 *               [threads=1,4] [reps=3] [out=BENCH_PERF.json] [gate=0]
 *               [record_budget=0]
 *               [frames=0] [depths=1,2,4] [seq_threads=4] [seq_gate=0]
 *
 * threads=1 is the serial two-phase pipeline; N>1 parallelizes
 * phase 1. Every thread count must be at least 1. With gate=1 the
 * bench fails if the largest thread count is slower than
 * render_threads=1 beyond a noise band — and on a host without at
 * least 2 cores the band widens to a thread-overhead bound, because a
 * parallel phase 1 cannot be faster there, only not-pathological.
 * With record_budget=N the bench fails if any two-phase run's
 * *encoded* record bytes exceed N — the CI guard against the stream
 * codec regressing back toward raw-array sizes.
 *
 * With frames=N > 0 the bench additionally times an N-frame camera-
 * path sequence (renderSequence) at each gpu.pipeline_depth in
 * depths=, with seq_threads render threads, and records a "sequence"
 * object in the same JSON: per-depth wall_sec and fps
 * (frames per second of simulated frames), plus the inter-frame reuse
 * totals. Per-frame images and cycles must be bit-identical across
 * every depth (always enforced). seq_gate=X additionally requires the
 * best pipelined (depth > 1) fps to be at least X times the depth-1
 * fps — enforced only when the host has >= 2 cores and seq_threads
 * >= 2, since phase overlap needs real parallelism.
 *
 * BENCH_PERF.json schema ("texpim-perf-v3"): each entry of "runs"
 * holds render_threads, wall_sec, fps, wall_phase1_sec,
 * wall_phase2_sec, record_bytes (encoded stream bytes — what phase 1
 * hands to phase 2) and record_bytes_decoded (the raw record arrays
 * those streams decode to; the ratio is the codec's compression).
 * perf_history accepts v1, v2 and v3 snapshots interchangeably. v3
 * adds the optional "sequence" object described above (absent when
 * frames=0).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "quality/image_metrics.hh"
#include "scene/game_profiles.hh"
#include "sim/design.hh"
#include "sim/simulator.hh"

using namespace texpim;

namespace {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ThreadPoint
{
    unsigned threads = 0;
    double wallSec = 0.0; //!< best (min) renderScene wall over reps
    double phase1Sec = 0.0;
    double phase2Sec = 0.0;
    u64 recordBytes = 0;        //!< encoded stream bytes
    u64 recordBytesDecoded = 0; //!< raw record-array bytes
    u64 frameCycles = 0;
    u64 imageHash = 0;
};

struct DepthPoint
{
    unsigned depth = 0;
    double wallSec = 0.0; //!< best (min) renderSequence wall over reps
    std::vector<u64> hashes;   //!< per-frame image hashes
    std::vector<u64> cycles;   //!< per-frame cycle counts
    u64 tagHits = 0;           //!< inter-frame tag hits, summed
    u64 reusedPrev = 0;        //!< blocks reused from previous frame
};

Design
parseDesign(const std::string &d)
{
    if (d == "baseline")
        return Design::Baseline;
    if (d == "bpim")
        return Design::BPim;
    if (d == "stfim")
        return Design::STfim;
    if (d == "atfim")
        return Design::ATfim;
    std::fprintf(stderr, "perf_render: unknown design '%s'\n", d.c_str());
    std::exit(2);
}

std::vector<unsigned>
parseThreadList(const char *s)
{
    std::vector<unsigned> out;
    while (*s != '\0') {
        char *end = nullptr;
        out.push_back(unsigned(std::strtoul(s, &end, 10)));
        s = (*end == ',') ? end + 1 : end;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned width = 640, height = 480, frame = 3, reps = 3;
    Design design = Design::Baseline;
    std::vector<unsigned> threads = {1, 4};
    std::string out_path = "BENCH_PERF.json";
    bool gate = false;
    u64 record_budget = 0; // 0 = no encoded-size gate
    unsigned seq_frames = 0; // 0 = no sequence sweep
    std::vector<unsigned> depths = {1, 2, 4};
    unsigned seq_threads = 4;
    double seq_gate = 0.0; // 0 = no pipelining-speedup gate

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [&](const char *k) -> const char * {
            size_t n = std::strlen(k);
            return std::strncmp(a, k, n) == 0 && a[n] == '='
                       ? a + n + 1
                       : nullptr;
        };
        if (const char *v = val("width"))
            width = unsigned(std::atoi(v));
        else if (const char *v = val("height"))
            height = unsigned(std::atoi(v));
        else if (const char *v = val("frame"))
            frame = unsigned(std::atoi(v));
        else if (const char *v = val("reps"))
            reps = unsigned(std::atoi(v));
        else if (const char *v = val("threads"))
            threads = parseThreadList(v);
        else if (const char *v = val("out"))
            out_path = v;
        else if (const char *v = val("gate"))
            gate = std::atoi(v) != 0;
        else if (const char *v = val("record_budget"))
            record_budget = u64(std::strtoull(v, nullptr, 10));
        else if (const char *v = val("frames"))
            seq_frames = unsigned(std::atoi(v));
        else if (const char *v = val("depths"))
            depths = parseThreadList(v);
        else if (const char *v = val("seq_threads"))
            seq_threads = unsigned(std::atoi(v));
        else if (const char *v = val("seq_gate"))
            seq_gate = std::atof(v);
        else if (const char *v = val("design"))
            design = parseDesign(v);
        else {
            std::fprintf(stderr, "perf_render: unknown arg '%s'\n", a);
            return 2;
        }
    }
    if (threads.empty() || reps == 0) {
        std::fprintf(stderr, "perf_render: empty threads/reps\n");
        return 2;
    }
    for (unsigned t : threads)
        if (t == 0) {
            std::fprintf(stderr, "perf_render: threads must be >= 1\n");
            return 2;
        }

    Workload wl{Game::Doom3, width, height};
    Scene scene = buildGameScene(wl, frame, 0x7e01d);
    scene.settings.maxAniso = defaultMaxAniso(width);

    std::printf("perf_render: %s %ux%u frame %u, design %s, %u reps\n\n",
                wl.label().c_str(), width, height, frame,
                designName(design), reps);
    std::printf("%8s %10s %8s %9s %9s %11s\n", "threads", "wall_s", "fps",
                "phase1_s", "phase2_s", "record_MiB");

    std::vector<ThreadPoint> points;
    for (unsigned t : threads) {
        ThreadPoint pt;
        pt.threads = t;
        for (unsigned r = 0; r < reps; ++r) {
            SimContext ctx;
            SimContext::Scope scope(ctx);
            SimConfig cfg;
            cfg.design = design;
            cfg.gpu.schedule = GpuParams::Schedule::RoundRobin;
            cfg.gpu.renderThreads = t;
            RenderingSimulator sim(cfg);
            double t0 = wallSeconds();
            SimResult res = sim.renderScene(scene);
            double wall = wallSeconds() - t0;
            if (r == 0 || wall < pt.wallSec) {
                pt.wallSec = wall;
                pt.phase1Sec = res.frame.wallPhase1Sec;
                pt.phase2Sec = res.frame.wallPhase2Sec;
            }
            pt.recordBytes = res.frame.recordBytes;
            pt.recordBytesDecoded = res.frame.recordBytesDecoded;
            pt.frameCycles = res.frame.frameCycles;
            pt.imageHash = imageHash(*res.image);
        }
        std::printf("%8u %10.3f %8.2f %9.3f %9.3f %11.2f\n", pt.threads,
                    pt.wallSec, 1.0 / pt.wallSec, pt.phase1Sec,
                    pt.phase2Sec, double(pt.recordBytes) / (1024 * 1024));
        points.push_back(pt);
    }

    // Bit-identity across every thread count: the two-phase contract.
    bool identical = true;
    for (const ThreadPoint &pt : points)
        if (pt.imageHash != points[0].imageHash ||
            pt.frameCycles != points[0].frameCycles) {
            std::fprintf(stderr,
                         "FAIL: threads=%u diverged (hash 0x%llx vs "
                         "0x%llx, cycles %llu vs %llu)\n",
                         pt.threads,
                         (unsigned long long)pt.imageHash,
                         (unsigned long long)points[0].imageHash,
                         (unsigned long long)pt.frameCycles,
                         (unsigned long long)points[0].frameCycles);
            identical = false;
        }

    // --- Sequence sweep: pipeline depth vs throughput ---------------
    std::vector<DepthPoint> seq_points;
    bool seq_identical = true;
    if (seq_frames > 0) {
        if (depths.empty() || seq_threads == 0) {
            std::fprintf(stderr,
                         "perf_render: sequence mode needs non-empty "
                         "depths= and seq_threads >= 1\n");
            return 2;
        }
        std::printf("\nsequence: %u frames from %u, render_threads=%u\n",
                    seq_frames, frame, seq_threads);
        std::printf("%8s %10s %8s %14s %14s\n", "depth", "wall_s", "fps",
                    "tag_hits", "blocks_reused");
        for (unsigned depth : depths) {
            DepthPoint dp;
            dp.depth = depth;
            for (unsigned r = 0; r < reps; ++r) {
                SimContext ctx;
                SimContext::Scope scope(ctx);
                SimConfig cfg;
                cfg.design = design;
                cfg.gpu.schedule = GpuParams::Schedule::RoundRobin;
                cfg.gpu.renderThreads = seq_threads;
                cfg.gpu.pipelineDepth = depth;
                RenderingSimulator sim(cfg);
                double t0 = wallSeconds();
                auto res = sim.renderSequence(wl, seq_frames, frame);
                double wall = wallSeconds() - t0;
                if (r == 0 || wall < dp.wallSec)
                    dp.wallSec = wall;
                dp.hashes.clear();
                dp.cycles.clear();
                dp.tagHits = dp.reusedPrev = 0;
                for (const SimResult &f : res) {
                    dp.hashes.push_back(imageHash(*f.image));
                    dp.cycles.push_back(f.frame.frameCycles);
                    dp.tagHits += f.interFrameTagHits;
                    dp.reusedPrev += f.seqBlocksReusedPrev;
                }
            }
            std::printf("%8u %10.3f %8.2f %14llu %14llu\n", dp.depth,
                        dp.wallSec, double(seq_frames) / dp.wallSec,
                        (unsigned long long)dp.tagHits,
                        (unsigned long long)dp.reusedPrev);
            seq_points.push_back(std::move(dp));
        }
        // Pipelining must not move a single pixel, cycle or counter of
        // any frame: compare every depth against the first.
        for (const DepthPoint &dp : seq_points)
            if (dp.hashes != seq_points[0].hashes ||
                dp.cycles != seq_points[0].cycles ||
                dp.tagHits != seq_points[0].tagHits ||
                dp.reusedPrev != seq_points[0].reusedPrev) {
                std::fprintf(stderr,
                             "FAIL: pipeline_depth=%u diverged from "
                             "depth=%u\n",
                             dp.depth, seq_points[0].depth);
                seq_identical = false;
            }
    }

    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-perf-v3");
    w.keyValue("bench", "perf_render");
    w.keyValue("workload", wl.label());
    w.keyValue("design", std::string(designName(design)));
    w.keyValue("width", width);
    w.keyValue("height", height);
    w.keyValue("frame", frame);
    w.keyValue("reps", reps);
    // Interpreting parallel speedups needs the host's core count: a
    // single-core runner legitimately shows none.
    w.keyValue("host_threads", std::thread::hardware_concurrency());
    w.keyValue("frame_cycles", points[0].frameCycles);
    w.keyValue("bit_identical", identical);
    w.key("runs").beginArray();
    for (const ThreadPoint &pt : points) {
        w.beginObject();
        w.keyValue("render_threads", pt.threads);
        w.keyValue("wall_sec", pt.wallSec);
        w.keyValue("fps", 1.0 / pt.wallSec);
        w.keyValue("wall_phase1_sec", pt.phase1Sec);
        w.keyValue("wall_phase2_sec", pt.phase2Sec);
        w.keyValue("record_bytes", pt.recordBytes);
        w.keyValue("record_bytes_decoded", pt.recordBytesDecoded);
        w.endObject();
    }
    w.endArray();
    if (!seq_points.empty()) {
        // The inter-frame pipeline sweep. fps here is sequence
        // throughput (simulated frames per wall second); perf_history
        // tracks it as its own "<workload>-seq<N>" trajectory.
        w.key("sequence").beginObject();
        w.keyValue("frames", seq_frames);
        w.keyValue("start_frame", frame);
        w.keyValue("render_threads", seq_threads);
        w.keyValue("frame_cycles", seq_points[0].cycles.empty()
                                       ? u64(0)
                                       : seq_points[0].cycles[0]);
        w.keyValue("bit_identical", seq_identical);
        w.key("runs").beginArray();
        for (const DepthPoint &dp : seq_points) {
            w.beginObject();
            w.keyValue("pipeline_depth", dp.depth);
            w.keyValue("wall_sec", dp.wallSec);
            w.keyValue("fps", double(seq_frames) / dp.wallSec);
            w.keyValue("interframe_tag_hits", dp.tagHits);
            w.keyValue("blocks_reused_prev", dp.reusedPrev);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    writeTextFile(out_path, w.str());
    std::printf("\nwrote %s\n", out_path.c_str());

    if (!identical || !seq_identical)
        return 1;

    if (record_budget > 0) {
        // CI contract: the encoded replay streams must stay under the
        // checked-in budget (a codec or batching regression shows up
        // here long before wall time moves on a noisy runner).
        for (const ThreadPoint &pt : points) {
            if (pt.recordBytes > record_budget) {
                std::fprintf(stderr,
                             "FAIL: render_threads=%u encoded record "
                             "bytes %llu exceed budget %llu\n",
                             pt.threads,
                             (unsigned long long)pt.recordBytes,
                             (unsigned long long)record_budget);
                return 1;
            }
        }
    }

    unsigned host_cores = std::thread::hardware_concurrency();
    if (gate) {
        // CI contract: the widest pool must not be slower than the
        // serial two-phase pipeline beyond scheduling noise. On a host
        // without 2 cores the worker pool cannot win wall clock — the
        // threads time-slice one core — so the band widens to a
        // thread-overhead bound: the gate then only catches
        // pathological slowdowns (a lock convoy, oversubscription
        // collapse), which is all a 1-core runner can measure.
        const ThreadPoint *serial = nullptr, *widest = nullptr;
        for (const ThreadPoint &pt : points) {
            if (pt.threads == 1)
                serial = &pt;
            if (widest == nullptr || pt.threads > widest->threads)
                widest = &pt;
        }
        double band = host_cores >= 2 ? 0.05 : 0.30;
        if (serial != nullptr && widest != nullptr &&
            widest->threads > 1 &&
            widest->wallSec > serial->wallSec * (1.0 + band)) {
            std::fprintf(stderr,
                         "FAIL: render_threads=%u (%.3fs) slower than "
                         "render_threads=1 (%.3fs) beyond the %.0f%% "
                         "band (%u host cores)\n",
                         widest->threads, widest->wallSec,
                         serial->wallSec, band * 100.0, host_cores);
            return 1;
        }
    }

    if (seq_gate > 0.0 && !seq_points.empty()) {
        const DepthPoint *unpiped = nullptr;
        const DepthPoint *best = nullptr;
        for (const DepthPoint &dp : seq_points) {
            if (dp.depth == 1)
                unpiped = &dp;
            else if (best == nullptr || dp.wallSec < best->wallSec)
                best = &dp;
        }
        if (host_cores < 2 || seq_threads < 2) {
            std::printf("seq_gate: skipped (host has %u cores, "
                        "seq_threads=%u — phase overlap needs real "
                        "parallelism)\n",
                        host_cores, seq_threads);
        } else if (unpiped != nullptr && best != nullptr) {
            double speedup = unpiped->wallSec / best->wallSec;
            std::printf("seq_gate: depth=%u is %.2fx depth=1 "
                        "(need %.2fx)\n",
                        best->depth, speedup, seq_gate);
            if (speedup < seq_gate) {
                std::fprintf(stderr,
                             "FAIL: pipelined sequence speedup %.2fx "
                             "below the %.2fx gate\n",
                             speedup, seq_gate);
                return 1;
            }
        }
    }
    return 0;
}
