/**
 * @file
 * texbench: the TexPIM host-time benchmark program.
 *
 * Runs one named workload for a fixed host-time budget and writes
 * everything it measured as one JSON document (`--out`). run.py builds
 * this program, runs it, checks its outputs against the expected values
 * stored beside it and prints the benchmark's result line; see
 * README.md for the workloads, the metric catalog and how to read them.
 *
 * texbench measures the simulator from outside only: it times calls
 * into public entry points and reads work counts from the StatRegistry
 * snapshot of each simulation's SimContext. With `--trace 1` it records
 * spans around those calls (name, start, end, parent), keeps them in
 * memory and folds them into a per-layer self-time tree at the end.
 *
 * Usage:
 *   texbench --workload frame-baseline|frame-atfim|path-baseline|sweep-320
 *            [--seed N] [--seconds S] [--trace 0|1] --out FILE
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "common/stat_registry.hh"
#include "quality/image_metrics.hh"
#include "scene/game_profiles.hh"
#include "sim/design.hh"
#include "sim/runner/experiment_runner.hh"
#include "sim/simulator.hh"

using namespace texpim;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 3;

/** Frames per renderSequence call on path-baseline. */
constexpr unsigned kPathFrames = 4;

/** The camera-path frame every workload starts at. */
constexpr unsigned kStartFrame = 3;

/** Busy threads every workload is sized to (the reference host's
 *  core count). */
constexpr unsigned kThreads = 4;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// --- Spans ----------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/**
 * Spans of one thread, kept in memory until the run ends. open()/close()
 * nest through a stack; add() records an interval measured elsewhere
 * (the renderer's own phase-1/phase-2 wall clocks) as a child of the
 * innermost open span.
 */
class SpanLog
{
  public:
    void
    open(const char *name)
    {
        spans_.push_back({name, now(), 0.0, top()});
        stack_.push_back(int(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[size_t(stack_.back())].end = now();
        stack_.pop_back();
    }

    void
    add(const char *name, double seconds)
    {
        double end = now();
        spans_.push_back({name, end - seconds, end, top()});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int top() const { return stack_.empty() ? -1 : stack_.back(); }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when `log` is null (the untraced run). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name) : log_(log)
    {
        if (log_)
            log_->open(name);
    }
    ~SpanScope()
    {
        if (log_)
            log_->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
};

/** Self time aggregated per span path ("frame/gpu.render/gpu.replay"). */
struct TreeRow
{
    double selfS = 0.0;
    double totalS = 0.0;
    u64 count = 0;
};

void
foldSpans(const SpanLog &log, std::map<std::string, TreeRow> &tree)
{
    const std::vector<Span> &s = log.spans();
    std::vector<std::string> path(s.size());
    std::vector<double> child(s.size(), 0.0);
    for (size_t i = 0; i < s.size(); ++i) {
        path[i] = s[i].parent < 0 ? s[i].name
                                  : path[size_t(s[i].parent)] + "/" +
                                        s[i].name;
        if (s[i].parent >= 0)
            child[size_t(s[i].parent)] += s[i].end - s[i].start;
    }
    for (size_t i = 0; i < s.size(); ++i) {
        TreeRow &row = tree[path[i]];
        row.totalS += s[i].end - s[i].start;
        row.selfS += s[i].end - s[i].start - child[i];
        ++row.count;
    }
}

/** Median duration of every span named `name`, in any log. */
double
medianSpan(const std::vector<const SpanLog *> &logs, const std::string &name)
{
    std::vector<double> d;
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            if (s.name == name)
                d.push_back(s.end - s.start);
    return median(d);
}

/**
 * Per traced op (root span, in log order): the summed duration of its
 * spans named in `names`, the root itself included.
 */
std::vector<double>
perOp(const std::vector<const SpanLog *> &logs,
      std::initializer_list<const char *> names)
{
    std::vector<double> out;
    for (const SpanLog *log : logs) {
        const std::vector<Span> &s = log->spans();
        std::vector<size_t> op(s.size()); // index into `out`
        for (size_t i = 0; i < s.size(); ++i) {
            if (s[i].parent < 0) {
                op[i] = out.size();
                out.push_back(0.0);
            } else {
                op[i] = op[size_t(s[i].parent)];
            }
            for (const char *n : names)
                if (s[i].name == n)
                    out[op[i]] += s[i].end - s[i].start;
        }
    }
    return out;
}

// --- Results --------------------------------------------------------

/** One op's checked output: the image fingerprint and frame cycles. */
struct Output
{
    std::string label;
    u64 hash = 0;
    u64 cycles = 0;
    std::string error; //!< "" when the op succeeded
};

/** The simulated end-to-end metrics, summed over one pass. */
struct SimTotals
{
    double cycles = 0.0;
    double texFilterCycles = 0.0;
    double offchipMiB = 0.0;
    double energyMj = 0.0;

    void
    add(const SimResult &r)
    {
        cycles += double(r.frame.frameCycles);
        texFilterCycles += double(r.textureFilterCycles);
        offchipMiB += double(r.offChipTotalBytes) / kMiB;
        energyMj += r.energy.total() * 1e3;
    }
};

/** Ops completed and the host seconds they took. */
struct Tally
{
    u64 ops = 0;
    double seconds = 0.0;
};

struct Run
{
    std::vector<double> setupS;
    std::vector<double> opS; //!< untraced host seconds per op, one per sample
    Tally untraced;
    Tally traced;
    std::vector<Output> outputs;
    SimTotals pass;
    bool passSet = false;

    // Traced run only.
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::map<std::string, double> layers;

    SpanLog *
    newLog()
    {
        logs.push_back(std::make_unique<SpanLog>());
        return logs.back().get();
    }
};

Output
outputOf(const std::string &label, const SimResult &r)
{
    Output o;
    o.label = label;
    o.hash = r.image ? imageHash(*r.image) : 0;
    o.cycles = r.frame.frameCycles;
    if (!r.image)
        o.error = "no image";
    return o;
}

/** Mark every output that disagrees with the first of its label:
 *  repeated ops on the same inputs must be bit-identical. */
void
checkRepeatable(std::vector<Output> &outs)
{
    std::map<std::string, const Output *> first;
    for (Output &o : outs) {
        if (!o.error.empty())
            continue;
        auto [it, fresh] = first.emplace(o.label, &o);
        if (!fresh &&
            (o.hash != it->second->hash || o.cycles != it->second->cycles))
            o.error = "differs from the first op on the same inputs";
    }
}

/**
 * The op-level layers, reported on every workload so that no layer
 * time reads a constant 0. `prep` names the spans before the timing
 * replay (what a pipelined sequence overlaps with the previous frame's
 * replay), `finish` those of the replay side.
 */
void
opLayers(Run &run, std::initializer_list<const char *> prep,
         std::initializer_list<const char *> finish)
{
    std::vector<const SpanLog *> logs;
    for (const auto &log : run.logs)
        logs.push_back(log.get());
    std::vector<double> ops = perOp(logs, {"frame", "spec"});
    std::vector<double> census = perOp(logs, {"gpu.census"});
    double p = median(perOp(logs, prep));
    double f = median(perOp(logs, finish));
    run.layers["seq.prep_s"] = p;
    run.layers["seq.finish_s"] = f;
    // 1 = prep and finish back to back; above 1 = they overlap.
    run.layers["seq.overlap_ratio"] = (p + f) / median(run.opS);
    run.layers["runner.spec_s"] = median(ops);
    run.layers["gpu.census_share"] =
        std::accumulate(census.begin(), census.end(), 0.0) /
        std::accumulate(ops.begin(), ops.end(), 0.0);
}

// --- Work counts from a stat snapshot --------------------------------

/** Sum of "<group>.<name>" over every group starting with `prefix`. */
double
stat(const StatRegistry::Snapshot &snap, const std::string &prefix,
     const std::string &name)
{
    double sum = 0.0;
    std::string suffix = "." + name;
    for (auto it = snap.lower_bound(prefix);
         it != snap.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &k = it->first;
        if (k.size() > suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0 &&
            k.find('.') == k.size() - suffix.size())
            sum += it->second;
    }
    return sum;
}

/** Per-layer work counts of one pass, accumulated over its ops. */
struct Counts
{
    std::map<std::string, double> v;

    void
    addFrame(const SimResult &r)
    {
        v["gpu.record_mib"] += double(r.frame.recordBytes) / kMiB;
        v["gpu.record_decoded_mib"] +=
            double(r.frame.recordBytesDecoded) / kMiB;
        v["gpu.fragments_shaded"] += double(r.frame.fragmentsShaded);
        v["gpu.tex_requests"] += double(r.frame.texRequests);
        double peak = double(r.frame.recordBytesPeak) / kMiB;
        v["gpu.replay_peak_mib"] = std::max(v["gpu.replay_peak_mib"], peak);
    }

    void
    addScene(const Scene &scene)
    {
        v["scene.textures"] += scene.textures->count();
        v["scene.texture_mib"] += double(scene.textures->totalBytes()) / kMiB;
    }

    void
    addStats(const StatRegistry::Snapshot &s)
    {
        v["tex.texels"] += stat(s, "tex_", "texels") +
                           stat(s, "tex_atfim", "parents");
        v["tex.filter_ops"] +=
            stat(s, "tex_", "filter_ops") + stat(s, "tex_", "host_filter_ops");
        v["tex.aniso_samples"] += stat(s, "tex_", "aniso_samples");
        for (const char *lvl : {"l1", "l2"}) {
            std::string l = lvl;
            v["cache." + l + "_hits"] += stat(s, "tex_", l + "_hits");
            v["cache." + l + "_accesses"] +=
                stat(s, "tex_", l + "_hits") + stat(s, "tex_", l + "_misses") +
                stat(s, "tex_", l + "_angle_recalcs");
            v["cache.interframe_hits"] +=
                stat(s, "tex_", l + "_interframe_hits");
            v["pim.angle_recalcs"] += stat(s, "tex_", l + "_angle_recalcs");
        }
        v["cache.mshr_merges"] += stat(s, "tex_", "mshr_merges");
        for (const char *m : {"gddr5", "hmc"}) {
            std::string g = m;
            v["mem." + g + ".reads"] += stat(s, g, "reads");
            v["mem." + g + ".row_hits"] += stat(s, g, "row_hits");
            v["mem." + g + ".row_accesses"] +=
                stat(s, g, "row_hits") + stat(s, g, "row_misses") +
                stat(s, g, "row_conflicts");
        }
        v["mem.hmc.packages_to_device"] += stat(s, "hmc", "packages_to_device");
        v["mem.hmc.link_retries"] += stat(s, "hmc", "link_retries");
        v["pim.offload_packages"] += stat(s, "tex_atfim", "offload_packages") +
                                     stat(s, "tex_stfim", "packages") / 2;
        v["pim.reuse_mismatches"] += stat(s, "tex_atfim", "reuse_mismatches");
        v["pim.fallbacks"] += stat(s, "pim", "fallbacks");
        v["pim.stfim.queue_stalls"] += stat(s, "tex_stfim", "queue_stalls");
    }

    /** The reported metrics: ratios replace their hit counts. */
    std::map<std::string, double>
    metrics() const
    {
        auto get = [&](const std::string &k) {
            auto it = v.find(k);
            return it == v.end() ? 0.0 : it->second;
        };
        auto ratio = [&](const std::string &num, const std::string &den) {
            double d = get(den);
            return d > 0 ? get(num) / d : 0.0;
        };
        std::map<std::string, double> m;
        for (const char *k :
             {"scene.textures", "scene.texture_mib", "gpu.record_mib",
              "gpu.record_decoded_mib",
              "gpu.fragments_shaded", "gpu.tex_requests",
              "gpu.replay_peak_mib", "tex.texels", "tex.filter_ops",
              "tex.aniso_samples", "cache.l1_accesses", "cache.l2_accesses",
              "cache.mshr_merges", "cache.interframe_hits",
              "mem.gddr5.reads", "mem.hmc.reads",
              "mem.hmc.packages_to_device", "mem.hmc.link_retries",
              "pim.offload_packages", "pim.angle_recalcs",
              "pim.reuse_mismatches", "pim.fallbacks",
              "pim.stfim.queue_stalls"})
            m[k] = get(k);
        m["cache.l1_hit_ratio"] = ratio("cache.l1_hits", "cache.l1_accesses");
        m["cache.l2_hit_ratio"] = ratio("cache.l2_hits", "cache.l2_accesses");
        m["mem.gddr5.row_hit_ratio"] =
            ratio("mem.gddr5.row_hits", "mem.gddr5.row_accesses");
        m["mem.hmc.row_hit_ratio"] =
            ratio("mem.hmc.row_hits", "mem.hmc.row_accesses");
        return m;
    }
};

// --- Options --------------------------------------------------------

struct Options
{
    std::string workload;
    u64 seed = 0x7e01d;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "texbench: %s\nusage: texbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] --out FILE\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v, nullptr, 0);
        else if (k == "--seconds")
            o.seconds = std::atof(v);
        else if (k == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (k == "--out")
            o.out = v;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (argc % 2 == 0)
        usage("arguments come in --key value pairs");
    if (o.out.empty() || !(o.seconds > 0.0))
        usage("--out and a positive --seconds are required");
    return o;
}

const Workload kDoom3{Game::Doom3, 640, 480};

/**
 * The timed region: `op` runs until `seconds` of wall time have passed
 * (at least once, and at least once traced in a traced run) and returns
 * the number of ops it completed. Each
 * untraced call adds one sample (its wall / its ops) to `opS`. With a
 * span log, traced and untraced calls alternate, so the tracing
 * overhead is measured under the same host conditions as the spans.
 */
void
timedRegion(double seconds, SpanLog *log, Run &run,
            const std::function<u64(SpanLog *)> &op)
{
    double start = now();
    bool traced = false;
    do {
        double t0 = now();
        u64 n = op(traced ? log : nullptr);
        double wall = now() - t0;
        Tally &tally = traced ? run.traced : run.untraced;
        tally.ops += n;
        tally.seconds += wall;
        if (!traced)
            run.opS.push_back(wall / double(n));
        traced = log && !traced;
    } while (now() - start < seconds || (log && run.traced.ops == 0));
}

// --- frame-baseline / frame-atfim -----------------------------------

/** One cold Doom3 640x480 frame, renderScene on a scene built during
 *  set-up. */
void
runFrame(const Options &opt, Design design, Run &run)
{
    Scene scene;
    std::unique_ptr<SimContext> ctx;
    std::unique_ptr<RenderingSimulator> sim;
    SimConfig cfg;
    cfg.design = design;
    cfg.gpu.renderThreads = kThreads;

    std::vector<double> build_s, construct_s;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        sim.reset();
        ctx.reset();
        double t0 = now();
        scene = buildGameScene(kDoom3, kStartFrame, opt.seed);
        scene.settings.maxAniso = defaultMaxAniso(kDoom3.width);
        double t1 = now();
        ctx = std::make_unique<SimContext>();
        SimContext::Scope scope(*ctx);
        sim = std::make_unique<RenderingSimulator>(cfg);
        double t2 = now();
        run.setupS.push_back(t2 - t0);
        build_s.push_back(t1 - t0);
        construct_s.push_back(t2 - t1);
    }
    SimContext::Scope scope(*ctx);

    Counts counts;
    double merge_s = 0.0;
    auto frame = [&](SpanLog *log) -> u64 {
        Output out;
        out.label = "f" + std::to_string(kStartFrame);
        try {
            SimResult r;
            {
                SpanScope op(log, "frame");
                if (log) {
                    // renderScene starts with a cold pipeline rebuild that
                    // tears down the previous frame's; do it as a separate
                    // public call so the rebuild is a layer of its own.
                    SpanScope s(log, "sim.rebuild");
                    sim->beginSequence();
                }
                SpanScope render(log, "gpu.render");
                r = sim->renderScene(scene);
                if (log) {
                    log->add("gpu.record", r.frame.wallPhase1Sec);
                    log->add("gpu.replay", r.frame.wallPhase2Sec);
                }
            }
            out = outputOf(out.label, r);
            if (!run.passSet) {
                run.pass.add(r);
                run.passSet = true;
                counts.addScene(scene);
                counts.addFrame(r);
                double t0 = now();
                StatRegistry::Snapshot snap = ctx->stats().snapshot();
                merge_s = now() - t0;
                counts.addStats(snap);
            }
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        run.outputs.push_back(out);
        return 1;
    };

    SpanLog *log = opt.trace ? run.newLog() : nullptr;
    timedRegion(opt.seconds, log, run, frame);
    if (!log)
        return;

    std::vector<const SpanLog *> logs = {log};
    std::vector<double> ns_per_req;
    for (const Span &s : log->spans())
        if (s.name == "gpu.replay")
            ns_per_req.push_back((s.end - s.start) * 1e9 /
                                 counts.v["gpu.tex_requests"]);
    run.layers = counts.metrics();
    run.layers["scene.build_s"] = median(build_s);
    run.layers["sim.construct_s"] = median(construct_s);
    run.layers["sim.rebuild_s"] = medianSpan(logs, "sim.rebuild");
    run.layers["gpu.record_s"] = medianSpan(logs, "gpu.record");
    run.layers["gpu.replay_s"] = medianSpan(logs, "gpu.replay");
    run.layers["gpu.ns_per_tex_request"] = median(ns_per_req);
    run.layers["runner.merge_s"] = merge_s;
    // renderScene's two phases; their sum falls short of the op by the
    // renderer's own work between and after them.
    opLayers(run, {"gpu.record"}, {"gpu.replay"});
}

// --- path-baseline --------------------------------------------------

/** Sorted-unique intersection size (block reuse versus the previous
 *  frame, as SequenceRunner computes it). */
u64
intersectionCount(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    u64 n = 0;
    for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
        if (a[i] < b[j])
            ++i;
        else if (b[j] < a[i])
            ++j;
        else
            ++n, ++i, ++j;
    }
    return n;
}

/**
 * A Doom3 640x480 camera path from frame 3 with warm caches and DRAM
 * state; one op is one frame. The untraced run calls renderSequence
 * (scene build stays inside, as users pay it every frame); the traced
 * run drives the split entry points serially, as
 * SequenceRunner::runSerial does.
 */
void
runPath(const Options &opt, Run &run)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    cfg.gpu.renderThreads = kThreads - 1; // + prep thread + replay thread
    cfg.gpu.pipelineDepth = 2;

    std::unique_ptr<SimContext> ctx;
    std::unique_ptr<RenderingSimulator> sim;
    std::vector<double> construct_s;
    // Set-up: simulator construction plus one warm-up frame, so the
    // set-up time is a stable quantity rather than microseconds.
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        sim.reset();
        ctx.reset();
        double t0 = now();
        ctx = std::make_unique<SimContext>();
        SimContext::Scope scope(*ctx);
        sim = std::make_unique<RenderingSimulator>(cfg);
        construct_s.push_back(now() - t0);
        sim->renderSequence(kDoom3, 1, kStartFrame, opt.seed);
        run.setupS.push_back(now() - t0);
    }
    SimContext::Scope scope(*ctx);

    auto label = [](unsigned f) { return "f" + std::to_string(f); };
    auto sequence = [&]() -> u64 {
        std::vector<SimResult> res;
        try {
            res = sim->renderSequence(kDoom3, kPathFrames, kStartFrame,
                                      opt.seed);
        } catch (const std::exception &e) {
            for (unsigned f = 0; f < kPathFrames; ++f)
                run.outputs.push_back({label(kStartFrame + f), 0, 0, e.what()});
            return kPathFrames;
        }
        for (unsigned f = 0; f < res.size(); ++f) {
            run.outputs.push_back(outputOf(label(kStartFrame + f), res[f]));
            if (!run.passSet)
                run.pass.add(res[f]);
        }
        run.passSet = true;
        return res.size();
    };

    SpanLog *log = opt.trace ? run.newLog() : nullptr;
    Counts counts;
    std::vector<double> merge_s;
    u64 reused_blocks = 0; // census result of the first traced pass
    bool first_pass = true;
    auto traced = [&]() -> u64 {
        std::vector<Addr> prev_blocks;
        for (unsigned f = 0; f < kPathFrames; ++f) {
            unsigned frame = kStartFrame + f;
            Output out;
            out.label = label(frame);
            try {
                SpanScope op(log, "frame");
                if (f == 0) {
                    SpanScope s(log, "sim.rebuild");
                    sim->beginSequence();
                }
                std::unique_ptr<Scene> scene;
                std::shared_ptr<FrameBuffer> fb;
                std::unique_ptr<Renderer::FrameJob> job;
                {
                    SpanScope prep(log, "seq.prep");
                    {
                        SpanScope s(log, "scene.build");
                        scene = std::make_unique<Scene>(
                            buildGameScene(kDoom3, frame, opt.seed));
                    }
                    {
                        SpanScope s(log, "scene.prepare");
                        *scene = sim->prepareFrameScene(*scene);
                    }
                    {
                        SpanScope s(log, "gpu.record");
                        fb = std::make_shared<FrameBuffer>(
                            scene->settings.width, scene->settings.height);
                        job = sim->recordSequenceFrame(*scene, *fb);
                    }
                    {
                        // The block-reuse census recordOne runs per frame.
                        SpanScope s(log, "gpu.census");
                        std::vector<Addr> blocks = job->uniqueBlocks();
                        u64 reused = intersectionCount(prev_blocks, blocks);
                        if (first_pass)
                            reused_blocks += reused;
                        prev_blocks = std::move(blocks);
                    }
                }
                SimResult r;
                StatRegistry::Snapshot before;
                {
                    SpanScope fin(log, "seq.finish");
                    {
                        SpanScope s(log, "sim.reset_stats");
                        sim->resetFrameStats();
                    }
                    if (first_pass)
                        before = ctx->stats().snapshot();
                    SpanScope s(log, "gpu.finish");
                    r = sim->finishSequenceFrame(*job, fb);
                    log->add("gpu.replay", r.frame.wallPhase2Sec);
                }
                out = outputOf(out.label, r);
                if (first_pass) {
                    counts.addScene(*scene);
                    counts.addFrame(r);
                    double t0 = now();
                    StatRegistry::Snapshot delta = ctx->stats().delta(before);
                    merge_s.push_back(now() - t0);
                    counts.addStats(delta);
                }
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            run.outputs.push_back(out);
        }
        first_pass = false;
        return kPathFrames;
    };

    // Untraced ops run the pipelined renderSequence; traced ones drive
    // the split entry points serially, as SequenceRunner::runSerial does.
    timedRegion(opt.seconds, log, run,
                [&](SpanLog *l) { return l ? traced() : sequence(); });
    if (!log)
        return;

    std::vector<const SpanLog *> logs = {log};
    std::vector<double> ns_per_req;
    for (const Span &s : log->spans())
        if (s.name == "gpu.replay")
            ns_per_req.push_back((s.end - s.start) * 1e9 * kPathFrames /
                                 counts.v["gpu.tex_requests"]);
    run.layers = counts.metrics();
    run.layers["scene.build_s"] = medianSpan(logs, "scene.build");
    run.layers["sim.construct_s"] = median(construct_s);
    run.layers["sim.rebuild_s"] = medianSpan(logs, "sim.rebuild");
    run.layers["gpu.record_s"] = medianSpan(logs, "gpu.record");
    run.layers["gpu.replay_s"] = medianSpan(logs, "gpu.replay");
    run.layers["gpu.census_reused_blocks"] = double(reused_blocks);
    run.layers["gpu.ns_per_tex_request"] = median(ns_per_req);
    run.layers["runner.merge_s"] = median(merge_s);
    // Serial prep + finish per frame over the pipelined wall per frame:
    // pipeline_depth would be perfect overlap.
    opLayers(run, {"seq.prep"}, {"seq.finish"});
}

// --- sweep-320 ------------------------------------------------------

/** The ExperimentRunner grid: 4 designs x {Doom3, HL2} at 320x240. */
std::vector<ExperimentSpec>
sweepGrid(u64 seed)
{
    std::vector<ExperimentSpec> specs;
    for (Design d :
         {Design::Baseline, Design::BPim, Design::STfim, Design::ATfim})
        for (Game g : {Game::Doom3, Game::HalfLife2}) {
            ExperimentSpec s;
            s.config.design = d;
            s.workload = {g, 320, 240};
            s.frame = kStartFrame;
            s.seed = seed;
            specs.push_back(s);
        }
    return specs;
}

/** Exact designs (all but A-TFIM) must render the same image per game:
 *  a cross-design check that needs no stored value. */
void
checkExactDesignsAgree(const std::vector<ExperimentSpec> &specs,
                       std::vector<Output> &outs, size_t first)
{
    std::map<int, u64> image;
    for (size_t i = 0; i < specs.size(); ++i) {
        Output &o = outs[first + i];
        if (specs[i].config.design == Design::ATfim || !o.error.empty())
            continue;
        auto [it, fresh] = image.emplace(int(specs[i].workload.game), o.hash);
        if (!fresh && it->second != o.hash)
            o.error = "exact design renders a different image";
    }
}

void
runSweep(const Options &opt, Run &run)
{
    const std::vector<ExperimentSpec> specs = sweepGrid(opt.seed);
    RunnerOptions ropt;
    ropt.jobs = kThreads;

    // Set-up: runner start plus one warm-up spec, so the set-up time is
    // a stable quantity rather than nanoseconds.
    std::unique_ptr<ExperimentRunner> runner;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        double t0 = now();
        runner = std::make_unique<ExperimentRunner>(ropt);
        runner->run({specs.front()});
        run.setupS.push_back(now() - t0);
    }

    auto pass = [&]() -> u64 {
        std::vector<ExperimentResult> res = runner->run(specs);
        mergedStats(res);
        size_t first = run.outputs.size();
        for (const ExperimentResult &r : res) {
            Output o = r.ok() ? outputOf(r.name, r.result)
                              : Output{r.name, 0, 0, r.error.message};
            if (r.ok() && o.hash != r.imageFnv1a)
                o.error = "runner image hash disagrees with the image";
            run.outputs.push_back(o);
            if (!run.passSet)
                run.pass.add(r.result);
        }
        checkExactDesignsAgree(specs, run.outputs, first);
        run.passSet = true;
        return res.size();
    };

    // Traced passes run each spec on a pool of `jobs` threads, following
    // ExperimentRunner::runOne step by step so its layers separate.
    std::vector<SpanLog *> logs;
    for (unsigned j = 0; opt.trace && j < ropt.jobs; ++j)
        logs.push_back(run.newLog());

    Counts counts;
    std::vector<double> idle, merge_s, ns_per_req;
    bool first_pass = true;
    auto traced = [&]() -> u64 {
        std::vector<ExperimentResult> res(specs.size());
        std::vector<Counts> spec_counts(specs.size());
        std::atomic<size_t> next{0};
        auto worker = [&](SpanLog *log) {
            for (size_t i = next++; i < specs.size(); i = next++) {
                const ExperimentSpec &spec = specs[i];
                ExperimentResult &out = res[i];
                out.name = spec.defaultLabel();
                try {
                    SimContext ctx;
                    SimContext::Scope scope(ctx);
                    SpanScope op(log, "spec");
                    Scene scene;
                    {
                        SpanScope s(log, "scene.build");
                        scene = buildGameScene(spec.workload, spec.frame,
                                               spec.seed);
                        scene.settings.maxAniso =
                            defaultMaxAniso(spec.workload.width);
                    }
                    std::unique_ptr<RenderingSimulator> sim;
                    {
                        SpanScope s(log, "sim.construct");
                        sim = std::make_unique<RenderingSimulator>(
                            spec.config);
                    }
                    {
                        SpanScope s(log, "gpu.render");
                        out.result = sim->renderScene(scene);
                        log->add("gpu.record", out.result.frame.wallPhase1Sec);
                        log->add("gpu.replay", out.result.frame.wallPhase2Sec);
                    }
                    {
                        SpanScope s(log, "stats.snapshot");
                        out.imageFnv1a = imageHash(*out.result.image);
                        out.stats = ctx.stats().snapshot();
                    }
                    {
                        // Releasing the used pipeline: the part of a
                        // rebuild a fresh simulator's first frame skips.
                        SpanScope s(log, "sim.rebuild");
                        sim.reset();
                    }
                    spec_counts[i].addScene(scene);
                    spec_counts[i].addFrame(out.result);
                    spec_counts[i].addStats(out.stats);
                } catch (const std::exception &e) {
                    out.status = JobStatus::Failed;
                    out.error.message = e.what();
                }
            }
        };
        double t0 = now();
        std::vector<std::thread> pool;
        for (unsigned j = 0; j < ropt.jobs; ++j)
            pool.emplace_back(worker, logs[j]);
        for (std::thread &t : pool)
            t.join();
        double t1 = now();
        mergedStats(res);
        merge_s.push_back(now() - t1);

        double spec_sum = 0.0;
        for (const SpanLog *log : logs)
            for (const Span &s : log->spans())
                if (s.name == "spec" && s.start >= t0)
                    spec_sum += s.end - s.start;
        idle.push_back(1.0 - spec_sum / (ropt.jobs * (t1 - t0)));
        for (size_t i = 0; i < res.size(); ++i) {
            const ExperimentResult &r = res[i];
            run.outputs.push_back(r.ok() ? outputOf(r.name, r.result)
                                         : Output{r.name, 0, 0,
                                                  r.error.message});
            if (first_pass && r.ok()) {
                for (const auto &[k, x] : spec_counts[i].v)
                    counts.v[k] = k == "gpu.replay_peak_mib"
                                      ? std::max(counts.v[k], x)
                                      : counts.v[k] + x;
                double replay = r.result.frame.wallPhase2Sec;
                if (r.result.frame.texRequests > 0)
                    ns_per_req.push_back(replay * 1e9 /
                                         double(r.result.frame.texRequests));
            }
        }
        checkExactDesignsAgree(specs, run.outputs,
                               run.outputs.size() - specs.size());
        first_pass = false;
        return res.size();
    };
    // A traced pass records into every worker's log, not just the first.
    timedRegion(opt.seconds, opt.trace ? logs.front() : nullptr, run,
                [&](SpanLog *l) { return l ? traced() : pass(); });
    if (!opt.trace)
        return;

    std::vector<const SpanLog *> all(logs.begin(), logs.end());
    run.layers = counts.metrics();
    run.layers["scene.build_s"] = medianSpan(all, "scene.build");
    run.layers["sim.construct_s"] = medianSpan(all, "sim.construct");
    run.layers["sim.rebuild_s"] = medianSpan(all, "sim.rebuild");
    run.layers["gpu.record_s"] = medianSpan(all, "gpu.record");
    run.layers["gpu.replay_s"] = medianSpan(all, "gpu.replay");
    run.layers["gpu.ns_per_tex_request"] = median(ns_per_req);
    run.layers["runner.pool_idle_ratio"] = median(idle);
    run.layers["runner.merge_s"] = median(merge_s);
    // Per spec; the overlap ratio is then the jobs' parallelism.
    opLayers(run, {"scene.build", "sim.construct", "gpu.record"},
             {"gpu.replay"});
}

// --- Output ---------------------------------------------------------

void
writeResult(const Options &opt, const Run &run)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("workload", opt.workload);
    w.keyValue("seed", opt.seed);
    w.keyValue("trace", opt.trace);

    w.key("provenance").beginObject();
    w.keyValue("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    w.keyValue("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.keyValue("compiler", std::string("gcc ") + __VERSION__);
#else
    w.keyValue("compiler", std::string("unknown"));
#endif
#ifdef __OPTIMIZE__
    w.keyValue("optimized", true);
#else
    w.keyValue("optimized", false);
#endif
#ifdef NDEBUG
    w.keyValue("ndebug", true);
#else
    w.keyValue("ndebug", false);
#endif
    w.endObject();

    auto array = [&](const char *k, const std::vector<double> &v) {
        w.key(k).beginArray();
        for (double x : v)
            w.value(x);
        w.endArray();
    };
    array("setup_s", run.setupS);
    array("op_s", run.opS);
    w.keyValue("timed_s", run.untraced.seconds);
    w.keyValue("timed_ops", run.untraced.ops);
    w.keyValue("traced_s", run.traced.seconds);
    w.keyValue("traced_ops", run.traced.ops);
    w.keyValue("peak_rss_mib", peakRssMiB());

    w.key("sim").beginObject();
    w.keyValue("sim_cycles", run.pass.cycles);
    w.keyValue("tex_filter_cycles", run.pass.texFilterCycles);
    w.keyValue("offchip_mib", run.pass.offchipMiB);
    w.keyValue("energy_mj", run.pass.energyMj);
    w.endObject();

    w.key("outputs").beginArray();
    for (const Output &o : run.outputs) {
        char hex[20];
        std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)o.hash);
        w.beginObject();
        w.keyValue("label", o.label);
        w.keyValue("hash", std::string(hex));
        w.keyValue("cycles", o.cycles);
        w.keyValue("error", o.error);
        w.endObject();
    }
    w.endArray();

    if (opt.trace) {
        w.key("layers").beginObject();
        for (const auto &[k, v] : run.layers)
            w.keyValue(k, v);
        w.endObject();
        std::map<std::string, TreeRow> tree;
        for (const auto &log : run.logs)
            foldSpans(*log, tree);
        w.key("tree").beginArray();
        for (const auto &[path, row] : tree) {
            w.beginObject();
            w.keyValue("path", path);
            w.keyValue("self_s", row.selfS);
            w.keyValue("total_s", row.totalS);
            w.keyValue("count", row.count);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    writeTextFile(opt.out, w.str() + "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    Run run;
    if (opt.workload == "frame-baseline")
        runFrame(opt, Design::Baseline, run);
    else if (opt.workload == "frame-atfim")
        runFrame(opt, Design::ATfim, run);
    else if (opt.workload == "path-baseline")
        runPath(opt, run);
    else if (opt.workload == "sweep-320")
        runSweep(opt, run);
    else
        usage(("unknown workload " + opt.workload).c_str());
    checkRepeatable(run.outputs);
    writeResult(opt, run);
    return 0;
}
