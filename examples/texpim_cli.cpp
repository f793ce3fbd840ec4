/**
 * @file
 * The `texpim` command-line driver: render workloads under any design
 * point, compare designs, and dump configurations — the day-to-day
 * entry point for using the simulator outside the canned benches.
 *
 *   texpim render  <game> [key=value ...]
 *   texpim compare <game> [key=value ...]
 *   texpim frames  <game> <count> [key=value ...]
 *   texpim sweep   [game ...] [key=value ...]
 *   texpim report  <game> [key=value ...]
 *   texpim config  [key=value ...]
 *   texpim stats   [key=value ...]
 *
 * `report` renders all four designs with the cycle-domain profiler and
 * traffic attribution enabled, and writes a self-contained markdown
 * (or, with a .html report_out, HTML) report: phase breakdown, hot
 * zones, off-chip traffic by class, per-texture/per-mip traffic and
 * per-vault utilization timelines.
 *
 * `sweep` runs the full (design x game) grid — all four designs over
 * the listed games (default: all five paper games) — on a pool of
 * jobs=N worker threads (see README "Running sweeps in parallel").
 * Per-spec metrics and merged stats are byte-identical whatever
 * jobs= is; with trace_out=, job k writes "<trace_out>.job<k>".
 * metrics_out=<file.json> exports the per-spec sweep results
 * ("texpim-sweep-v3", with per-spec status/error fields).
 *
 * Sweeps are resilient (see README "Resilient sweeps"): each spec runs
 * once, and one that throws, panics or exceeds sim.job_timeout_ms=
 * becomes a status=failed/timeout row instead of killing the grid;
 * sweep_journal=<file.jsonl> checkpoints each finished spec and
 * resume=<file.jsonl> continues an interrupted sweep with
 * byte-identical final outputs. sim.inject_failure=
 * ([design:]throw|panic|hang, comma-separated) injects failures for
 * testing the machinery itself.
 *
 * Recognized keys: every SimConfig key (design=, disable_aniso=,
 * gpu.render_threads=, gpu.pipeline_depth=, gpu.schedule=,
 * atfim.angle_threshold_rad=, fault_*) plus:
 *   width=, height= (1..65536), frame=, seed= (any u64, as is
 *   fault_seed=; every command that renders: all but stats),
 *   out=<frame.ppm> (render and frames),
 *   max_aniso= (1..32; render, compare, report and sweep),
 *   compress=true (BC1 textures; render, compare and report)
 *
 * Unknown keys are fatal, with a "did you mean" suggestion, and so is
 * a known key the command does not read: the sweep-only keys (jobs=,
 * metrics_out=, sweep_journal=, resume=, sim.inject_failure=,
 * sim.job_timeout_ms=) outside sweep, report_out= outside
 * report, compress= outside render, compare and report, max_aniso= on
 * frames (which builds every frame's scene at the workload's own
 * settings) and stats, out= outside render and frames, stats_out= on
 * report and stats, prof= outside render, compare and frames, the
 * other prof keys on sweep and stats, and the scene and trace keys
 * (width=, height=, frame=, seed=, trace_out=, trace_cap=) on stats.
 * config accepts every known key.
 *
 * Observability keys (see README "Observability"):
 *   stats_out=<file.json>       JSON export of every registered
 *                               statistic after the run, with the
 *                               frame's SimResult embedded (sweep
 *                               writes the merged per-spec stats)
 *   trace_out=<file.json>       cycle-level Chrome trace-event file
 *                               (load in chrome://tracing or Perfetto)
 *   trace_cap=<N>               trace event cap (default 1000000)
 *   prof=1                      enable the cycle-domain profiler
 *                               (render, compare, frames; report
 *                               always profiles)
 *   prof_out=<file.json>        zone-tree profile export (implies prof=1)
 *   prof.epoch_cycles=<N>       utilization sampling period (default 65536)
 *   prof.wall=1                 include host wall-clock fields in the
 *                               profile/report (host-dependent!)
 *   report_out=<file.md|.html>  report destination (report command)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/stat_export.hh"
#include "common/stat_registry.hh"
#include "common/trace_events.hh"
#include "gpu/params.hh"
#include "quality/image_metrics.hh"
#include "sim/attribution/attribution.hh"
#include "sim/attribution/report.hh"
#include "sim/runner/experiment_runner.hh"
#include "sim/runner/sweep_journal.hh"
#include "sim/simulator.hh"

using namespace texpim;

namespace {

constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();

/** A game token (doom3, fear, hl2, riddick, wolfenstein); anything
 *  else is fatal. */
Game
readGame(const std::string &name)
{
    Game game;
    if (!parseGame(name, game))
        TEXPIM_FATAL("unknown game '", name,
                     "' (games: doom3, fear, hl2, riddick, wolfenstein)");
    return game;
}

/** width= and height=, each in [1, 65536]: FragRecord stores u16
 *  pixel coordinates. */
Workload
readWorkload(Game game, const Config &cfg)
{
    return {game, cfg.getUnsigned("width", 640, 1, 65536),
            cfg.getUnsigned("height", 480, 1, 65536)};
}

/** max_aniso=, or 0 when unset (keep the workload's level). */
unsigned
readMaxAniso(const Config &cfg)
{
    return cfg.getUnsigned("max_aniso", 0, 1, kQuadMaxAniso);
}

/** trace_cap=: trace events kept before further ones are dropped. */
u64
readEventCap(const Config &cfg)
{
    return cfg.getUnsigned("trace_cap",
                           unsigned(TraceEvents::kDefaultEventCap), 0,
                           kMaxUnsigned);
}

Config
collectConfig(int argc, char **argv, int first)
{
    Config cfg;
    for (int i = first; i < argc; ++i)
        cfg.parseItem(argv[i]);
    return cfg;
}

/**
 * Known keys that only some commands read, with those commands. Any
 * other command given one of them fails instead of silently ignoring
 * it; `config` only echoes the configuration and accepts every key.
 */
const std::map<std::string, std::vector<std::string>> &
commandOnlyKeys()
{
    static const std::vector<std::string> sweep = {"sweep"};
    // stats only instantiates the designs; it renders no scene.
    static const std::vector<std::string> scene = {
        "render", "compare", "frames", "sweep", "report"};
    // texpim-lint: command-key-table begin
    static const std::map<std::string, std::vector<std::string>> keys = {
        // frames builds every frame's scene itself, at the workload's
        // own anisotropy and texel format; sweep specs carry no format.
        {"compress", {"render", "compare", "report"}},
        {"max_aniso", {"render", "compare", "report", "sweep"}},
        {"report_out", {"report"}},
        {"width", scene},
        {"height", scene},
        {"frame", scene},
        {"seed", scene},
        {"trace_out", scene},
        {"trace_cap", scene},
        // Images are written per frame; compare, report and sweep
        // render several designs and write none.
        {"out", {"render", "frames"}},
        // report always profiles and writes its own report; sweep
        // merges per-spec stats instead of profiling.
        {"stats_out", {"render", "compare", "frames", "sweep"}},
        {"prof", {"render", "compare", "frames"}},
        {"prof_out", {"render", "compare", "frames", "report"}},
        {"prof.epoch_cycles", {"render", "compare", "frames", "report"}},
        {"prof.wall", {"render", "compare", "frames", "report"}},
        {"jobs", sweep},
        {"metrics_out", sweep},
        {"resume", sweep},
        {"sim.inject_failure", sweep},
        {"sim.job_timeout_ms", sweep},
        {"sweep_journal", sweep},
    };
    // texpim-lint: command-key-table end
    return keys;
}

/**
 * Key validation for command `cmd`. Every key SimConfig::fromConfig
 * (or scene loading) queried is known automatically; knownConfigKeys()
 * — the authoritative table texpim-lint rule C1 reconciles against the
 * sources and the README — covers the CLI-only keys too. Unknown keys
 * are fatal, with a "did you mean" suggestion, and so is a known key
 * that `cmd` does not read (commandOnlyKeys()).
 */
void
validateConfig(const Config &cfg, const std::string &cmd)
{
    cfg.checkKnownKeys(knownConfigKeys());
    if (cmd == "config")
        return;
    for (const auto &[key, readers] : commandOnlyKeys()) {
        if (!cfg.has(key) ||
            std::find(readers.begin(), readers.end(), cmd) != readers.end())
            continue;
        std::string list;
        for (const std::string &r : readers)
            list += (list.empty() ? "" : ", ") + r;
        TEXPIM_FATAL(cmd, " does not read ", key, "= (read by: ", list, ")");
    }
}

Scene
loadScene(const std::string &game, const Config &cfg)
{
    Scene scene = buildGameScene(readWorkload(readGame(game), cfg),
                                 cfg.getUnsigned("frame", 3, 0, kMaxUnsigned),
                                 cfg.getU64("seed", 0x7e01d));
    if (unsigned max_aniso = readMaxAniso(cfg))
        scene.settings.maxAniso = max_aniso;
    if (cfg.getBool("compress", false))
        scene = withTextureFormat(scene, TexelFormat::Bc1);
    return scene;
}

void
printResult(const char *tag, const SimResult &r)
{
    std::printf("%-10s %12llu cycles | tex-filter %12llu | off-chip "
                "%7.2f MB (tex %5.1f%%) | %7.2f mJ | recalcs %llu\n",
                tag, (unsigned long long)r.frame.frameCycles,
                (unsigned long long)r.textureFilterCycles,
                double(r.offChipTotalBytes) / 1e6,
                r.offChipTotalBytes
                    ? 100.0 * double(r.textureTrafficBytes) /
                          double(r.offChipTotalBytes)
                    : 0.0,
                r.energy.total() * 1e3,
                (unsigned long long)r.angleRecalcs);
}

/** Start event tracing when trace_out= is present. */
void
beginTracing(const Config &cfg)
{
    std::string out = cfg.getString("trace_out", "");
    if (out.empty())
        return;
    TraceEvents::instance().enable(out, readEventCap(cfg));
}

/** Stop tracing and write the trace file, if tracing was on. */
void
endTracing()
{
    TraceEvents &t = TraceEvents::instance();
    if (!TraceEvents::active())
        return;
    t.disable();
    std::printf("wrote %s (%llu events, %llu dropped)\n", t.path().c_str(),
                (unsigned long long)t.recorded(),
                (unsigned long long)t.dropped());
}

/** Start the cycle-domain profiler when prof=1 or prof_out= asks. */
void
beginProfiling(const Config &cfg)
{
    if (!cfg.getBool("prof", false) &&
        cfg.getString("prof_out", "").empty())
        return;
    Profiler::instance().enable(
        cfg.getUnsigned("prof.epoch_cycles", 0, 0, kMaxUnsigned));
}

/**
 * Stop profiling and write `out` (schema "texpim-prof-v1"), with the
 * last frame's traffic attribution embedded when available. The file
 * is byte-identical across hosts and thread counts unless prof.wall=1
 * adds the host wall-clock fields. Also replays the attribution's
 * per-vault utilization timeline into the trace as counter events, so
 * call this before endTracing().
 */
void
endProfiling(const Config &cfg, const TrafficAttribution *attrib,
             const std::string &out)
{
    Profiler &p = Profiler::instance();
    if (!p.enabled())
        return;
    if (attrib != nullptr && TraceEvents::active())
        attrib->emitCounters(TraceEvents::instance());
    p.disable();
    if (out.empty())
        return;
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-prof-v1");
    w.keyValue("epoch_cycles", p.epochCycles());
    w.key("zones");
    p.writeJson(w, cfg.getBool("prof.wall", false));
    if (attrib != nullptr) {
        w.key("attribution");
        attrib->writeJson(w);
    }
    w.endObject();
    writeTextFile(out, w.str());
    std::printf("wrote %s\n", out.c_str());
}

/** Export every registered stat group with `result` embedded. */
void
exportStats(const std::string &path, const SimResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-stats-v1");
    w.key("result");
    writeSimResultJson(w, result);
    w.key("groups").beginArray();
    for (const auto &[display, g] : StatRegistry::instance().groups())
        writeGroupJson(w, display, *g);
    w.endArray();
    w.endObject();
    writeTextFile(path, w.str());
    std::printf("wrote %s\n", path.c_str());
}

int
cmdRender(int argc, char **argv)
{
    if (argc < 3)
        TEXPIM_FATAL("usage: texpim render <game> [key=value ...]");
    Config cfg = collectConfig(argc, argv, 3);
    Scene scene = loadScene(argv[2], cfg);
    SimConfig sc = SimConfig::fromConfig(cfg);
    validateConfig(cfg, "render");
    RenderingSimulator sim(sc);
    beginTracing(cfg);
    beginProfiling(cfg);
    SimResult r = sim.renderScene(scene);
    endProfiling(cfg, sim.attribution(), cfg.getString("prof_out", ""));
    endTracing();
    printResult(designName(sc.design), r);
    std::string stats_out = cfg.getString("stats_out", "");
    if (!stats_out.empty())
        exportStats(stats_out, r);
    std::string out = cfg.getString("out", "");
    if (!out.empty()) {
        writePpm(*r.image, out);
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}

/** "dir/stats.json" + "atfim" -> "dir/stats-atfim.json". */
std::string
perDesignPath(const std::string &path, const char *design)
{
    size_t dot = path.find_last_of('.');
    size_t slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + design;
    return path.substr(0, dot) + "-" + design + path.substr(dot);
}

int
cmdCompare(int argc, char **argv)
{
    if (argc < 3)
        TEXPIM_FATAL("usage: texpim compare <game> [key=value ...]");
    Config cfg = collectConfig(argc, argv, 3);
    Scene scene = loadScene(argv[2], cfg);
    std::string stats_out = cfg.getString("stats_out", "");
    SimConfig::fromConfig(cfg); // query every sim key, then validate
    validateConfig(cfg, "compare");
    beginTracing(cfg);

    std::string prof_out = cfg.getString("prof_out", "");
    SimResult base;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SimConfig sc = SimConfig::fromConfig(cfg);
        sc.design = d;
        RenderingSimulator sim(sc);
        beginProfiling(cfg);
        SimResult r = sim.renderScene(scene);
        endProfiling(cfg, sim.attribution(),
                     prof_out.empty()
                         ? prof_out
                         : perDesignPath(prof_out, designName(d)));
        if (d == Design::Baseline)
            base = r;
        printResult(designName(d), r);
        if (d != Design::Baseline) {
            std::printf("%-10s render %.2fx, tex-filter %.2fx, PSNR "
                        "%.1f, SSIM %.4f\n",
                        "", double(base.frame.frameCycles) /
                                double(r.frame.frameCycles),
                        double(base.textureFilterCycles) /
                            double(r.textureFilterCycles),
                        psnr(*base.image, *r.image),
                        ssim(*base.image, *r.image));
        }
        // Per-design stats file while this design's groups are live.
        if (!stats_out.empty())
            exportStats(perDesignPath(stats_out, designName(d)), r);
    }
    endTracing();
    return 0;
}

int
cmdFrames(int argc, char **argv)
{
    if (argc < 4)
        TEXPIM_FATAL(
            "usage: texpim frames <game> <count> [key=value ...]");
    Game game = readGame(argv[2]);
    unsigned count =
        Config::parseUnsigned("frames: count", argv[3], 1, kMaxUnsigned);
    Config cfg = collectConfig(argc, argv, 4);
    Workload wl = readWorkload(game, cfg);
    SimConfig sc = SimConfig::fromConfig(cfg);
    validateConfig(cfg, "frames");
    RenderingSimulator sim(sc);
    beginTracing(cfg);
    beginProfiling(cfg);
    auto frames = sim.renderSequence(
        wl, count, cfg.getUnsigned("frame", 0, 0, kMaxUnsigned),
        cfg.getU64("seed", 0x7e01d));
    // Like stats_out below, the profile reflects the final frame
    // (zones accumulate across frames; attribution is per frame).
    endProfiling(cfg, sim.attribution(), cfg.getString("prof_out", ""));
    endTracing();
    for (unsigned f = 0; f < frames.size(); ++f) {
        char tag[32];
        std::snprintf(tag, sizeof tag, "frame %u", f);
        printResult(tag, frames[f]);
    }
    // Component stats are reset per frame in renderSequence, so the
    // export reflects the final frame; the embedded result matches.
    std::string stats_out = cfg.getString("stats_out", "");
    if (!stats_out.empty())
        exportStats(stats_out, frames.back());
    // out=path.ppm writes path-<f>.ppm per frame; CI byte-compares
    // these between pipelined and serial sequence runs.
    std::string out = cfg.getString("out", "");
    if (!out.empty()) {
        for (unsigned f = 0; f < frames.size(); ++f) {
            std::string path =
                perDesignPath(out, std::to_string(f).c_str());
            writePpm(*frames[f].image, path);
            std::printf("wrote %s\n", path.c_str());
        }
    }
    return 0;
}

/** sim.inject_failure= kind token (tests/CI; see InjectedFailure). */
InjectedFailure
parseFailureKind(const std::string &kind)
{
    if (kind == "throw")
        return InjectedFailure::Throw;
    if (kind == "panic")
        return InjectedFailure::Panic;
    if (kind == "hang")
        return InjectedFailure::Hang;
    TEXPIM_FATAL("bad sim.inject_failure kind '", kind,
                 "' (throw|panic|hang)");
}

/**
 * Apply sim.inject_failure= to the sweep grid: a comma-separated list
 * of `<kind>` (all specs) or `<design>:<kind>` (that design's specs),
 * kind in throw|panic|hang. Exists so the containment and watchdog
 * machinery can be exercised end to end from the CLI — e.g. the
 * CI fault-containment smoke runs
 * sim.inject_failure=bpim:panic,stfim:throw,atfim:hang.
 */
void
applyInjectedFailures(std::vector<ExperimentSpec> &specs,
                      const std::string &grammar)
{
    size_t pos = 0;
    while (pos < grammar.size()) {
        size_t comma = grammar.find(',', pos);
        std::string item = grammar.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? grammar.size() : comma + 1;
        if (item.empty())
            continue;
        size_t colon = item.find(':');
        if (colon == std::string::npos) {
            InjectedFailure kind = parseFailureKind(item);
            for (ExperimentSpec &s : specs)
                s.inject = kind;
        } else {
            Design d;
            if (!parseDesign(item.substr(0, colon), d))
                TEXPIM_FATAL("bad sim.inject_failure design '",
                             item.substr(0, colon),
                             "' (baseline|bpim|stfim|atfim)");
            InjectedFailure kind = parseFailureKind(item.substr(colon + 1));
            for (ExperimentSpec &s : specs)
                if (s.config.design == d)
                    s.inject = kind;
        }
    }
}

/**
 * The (design x game) grid on the ExperimentRunner job pool. Every
 * output — the table, metrics_out JSON, merged stats_out — depends
 * only on the spec list, never on jobs=, so runs are reproducible and
 * comparable across machines (the thread-count invariance test pins
 * this down). Failures are contained per spec: a throwing, panicking
 * or timed-out spec becomes a status=failed/timeout row in the
 * "texpim-sweep-v3" metrics and the sweep still exits 0 (the grid
 * completed; the rows say what happened). With sweep_journal= every
 * finished spec is checkpointed; resume=<journal> skips the completed
 * ones and reproduces byte-identical merged outputs.
 */
int
cmdSweep(int argc, char **argv)
{
    // Positional game names come before the key=value items.
    std::vector<std::string> games;
    int first = 2;
    while (first < argc && std::strchr(argv[first], '=') == nullptr)
        games.push_back(argv[first++]);
    if (games.empty())
        games = {"doom3", "fear", "hl2", "riddick", "wolfenstein"};

    Config cfg = collectConfig(argc, argv, first);
    SimConfig proto = SimConfig::fromConfig(cfg);
    unsigned frame = cfg.getUnsigned("frame", 3, 0, kMaxUnsigned);
    u64 seed = cfg.getU64("seed", 0x7e01d);
    unsigned max_aniso = readMaxAniso(cfg);
    std::string stats_out = cfg.getString("stats_out", "");
    std::string metrics_out = cfg.getString("metrics_out", "");
    std::string journal_path = cfg.getString("sweep_journal", "");
    std::string resume_path = cfg.getString("resume", "");
    std::string inject = cfg.getString("sim.inject_failure", "");

    RunnerOptions ropt;
    ropt.jobs = cfg.getUnsigned("jobs", 1, 0, kMaxUnsigned); // 0: all cores
    ropt.tracePath = cfg.getString("trace_out", "");
    ropt.traceCap = readEventCap(cfg);
    ropt.jobTimeoutMs =
        cfg.getUnsigned("sim.job_timeout_ms", 0, 0, kMaxUnsigned);
    validateConfig(cfg, "sweep");

    std::vector<ExperimentSpec> specs;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        for (const std::string &g : games) {
            Game game = readGame(g);
            ExperimentSpec spec;
            spec.config = proto;
            spec.config.design = d;
            spec.workload = readWorkload(game, cfg);
            spec.frame = frame;
            spec.seed = seed;
            spec.maxAniso = max_aniso;
            specs.push_back(std::move(spec));
        }
    }
    if (!inject.empty())
        applyInjectedFailures(specs, inject);

    // Checkpoint/resume plumbing. resume= continues an interrupted
    // sweep's journal: restored specs are skipped and fresh ones keep
    // appending to the same file.
    std::unique_ptr<SweepJournal> journal;
    std::map<size_t, ExperimentResult> resumed;
    if (!resume_path.empty()) {
        if (!journal_path.empty() && journal_path != resume_path)
            TEXPIM_FATAL("resume= continues its own journal; drop "
                         "sweep_journal= or make it match resume=");
        std::vector<std::string> labels;
        labels.reserve(specs.size());
        for (const ExperimentSpec &s : specs)
            labels.push_back(s.name.empty() ? s.defaultLabel() : s.name);
        resumed = SweepJournal::load(resume_path, labels);
        journal = std::make_unique<SweepJournal>(resume_path, specs.size(),
                                                 /*fresh=*/false);
        ropt.resumed = &resumed;
        std::printf("resume: %zu of %zu specs restored from %s\n",
                    resumed.size(), specs.size(), resume_path.c_str());
    } else if (!journal_path.empty()) {
        journal = std::make_unique<SweepJournal>(journal_path, specs.size(),
                                                 /*fresh=*/true);
    }
    ropt.journal = journal.get();

    std::vector<ExperimentResult> results =
        ExperimentRunner(ropt).run(specs);

    size_t failed = 0;
    for (const ExperimentResult &r : results) {
        if (r.ok()) {
            printResult(r.name.c_str(), r.result);
        } else {
            ++failed;
            std::printf("%-10s %s (%s%s%s): %s\n", r.name.c_str(),
                        jobStatusName(r.status),
                        jobErrorCategoryName(r.error.category),
                        r.error.site.empty() ? "" : " at ",
                        r.error.site.c_str(), r.error.message.c_str());
        }
        if (!r.traceFile.empty())
            std::printf("%-10s wrote %s\n", "", r.traceFile.c_str());
    }
    if (failed > 0)
        std::printf("%zu of %zu specs did not complete (status fields in "
                    "the metrics export say why)\n",
                    failed, results.size());

    if (!metrics_out.empty()) {
        // Failed rows keep the numeric fields (zeros) so consumers can
        // stay column-oriented. See README "Sweep metrics schema".
        JsonWriter w;
        w.beginObject();
        w.keyValue("schema", "texpim-sweep-v3");
        w.key("specs").beginArray();
        for (const ExperimentResult &r : results) {
            char hash[32];
            std::snprintf(hash, sizeof hash, "%016llx",
                          (unsigned long long)r.imageFnv1a);
            w.beginObject();
            w.keyValue("name", r.name);
            w.keyValue("status", jobStatusName(r.status));
            if (r.ok()) {
                w.keyNull("error");
            } else {
                w.key("error").beginObject();
                w.keyValue("category",
                           jobErrorCategoryName(r.error.category));
                w.keyValue("site", r.error.site);
                w.keyValue("message", r.error.message);
                w.endObject();
            }
            w.keyValue("frame_cycles", u64(r.result.frame.frameCycles));
            w.keyValue("texture_filter_cycles",
                       u64(r.result.textureFilterCycles));
            w.keyValue("texture_traffic_bytes",
                       u64(r.result.textureTrafficBytes));
            w.keyValue("offchip_total_bytes",
                       u64(r.result.offChipTotalBytes));
            w.keyValue("energy_mj", r.result.energy.total() * 1e3);
            w.keyValue("image_fnv1a", std::string(hash));
            w.keyValue("total_faults", injectedFaults(r.stats));
            w.endObject();
        }
        w.endArray();
        w.endObject();
        writeTextFile(metrics_out, w.str());
        std::printf("wrote %s\n", metrics_out.c_str());
    }

    if (!stats_out.empty()) {
        // "jobs" in the file is the number of merged per-spec
        // snapshots, not the worker count, so the bytes stay identical
        // whatever jobs= was.
        writeTextFile(stats_out, snapshotToJson(mergedStats(results),
                                                u64(results.size())));
        std::printf("wrote %s\n", stats_out.c_str());
    }
    return 0;
}

int
cmdConfig(int argc, char **argv)
{
    Config cfg = collectConfig(argc, argv, 2);
    SimConfig sc = SimConfig::fromConfig(cfg);
    validateConfig(cfg, "config");
    std::printf("design: %s\n", designName(sc.design));
    std::printf("gpu: %u clusters x %u shaders, tile %u, tex unit %u+%u "
                "ALUs, L1 %llu KB, L2 %llu KB, window %u\n",
                sc.gpu.clusters, sc.gpu.shadersPerCluster, sc.gpu.tileSize,
                sc.gpu.texAddressAlus, sc.gpu.texFilterAlus,
                (unsigned long long)(sc.gpu.texL1.sizeBytes / 1024),
                (unsigned long long)(sc.gpu.texL2.sizeBytes / 1024),
                sc.gpu.maxInflightTexRequests);
    std::printf("gddr5: %.0f GB/s over %u channels\n",
                sc.gddr5.totalBandwidthGBs, sc.gddr5.channels);
    std::printf("hmc: %.0f GB/s external, %.0f GB/s internal, %u vaults\n",
                sc.hmc.externalBandwidthGBs, sc.hmc.internalBandwidthGBs,
                sc.hmc.vaults);
    std::printf("atfim: threshold %.4f rad, %u-wide generator/combiner, "
                "PTB %u\n",
                double(sc.atfim.angleThresholdRad), sc.atfim.texelGeneratorAlus,
                sc.atfim.parentTexelBufferEntries);
    return 0;
}

/**
 * Render all four designs with profiling + attribution on and emit a
 * self-contained report: phase breakdown (the paper's Fig. 2 at
 * per-mip grain), hot zones by self cycles, off-chip traffic by
 * class, per-texture/per-mip traffic and per-vault utilization
 * timelines. report_out= ending in .html selects the HTML rendering;
 * anything else gets markdown.
 */
int
cmdReport(int argc, char **argv)
{
    if (argc < 3)
        TEXPIM_FATAL("usage: texpim report <game> [key=value ...]");
    Config cfg = collectConfig(argc, argv, 3);
    Scene scene = loadScene(argv[2], cfg);
    SimConfig::fromConfig(cfg); // query every sim key, then validate
    validateConfig(cfg, "report");
    beginTracing(cfg);

    bool wall = cfg.getBool("prof.wall", false);
    u64 epoch = cfg.getUnsigned("prof.epoch_cycles", 0, 0, kMaxUnsigned);
    std::string prof_out = cfg.getString("prof_out", "");
    ReportBuilder report(argv[2]);
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SimConfig sc = SimConfig::fromConfig(cfg);
        sc.design = d;
        RenderingSimulator sim(sc);
        Profiler::instance().enable(epoch);
        SimResult r = sim.renderScene(scene);
        TEXPIM_ASSERT(sim.attribution() != nullptr,
                      "profiling was on, so the frame was attributed");
        report.addDesign(designName(d), r, Profiler::instance(),
                         *sim.attribution(), wall);
        endProfiling(cfg, sim.attribution(),
                     prof_out.empty()
                         ? prof_out
                         : perDesignPath(prof_out, designName(d)));
        printResult(designName(d), r);
    }
    endTracing();

    std::string out = cfg.getString("report_out", "texpim-report.md");
    bool html = out.size() >= 5 &&
                out.compare(out.size() - 5, 5, ".html") == 0;
    writeTextFile(out, html ? report.html() : report.markdown());
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    Config cfg = collectConfig(argc, argv, 2);

    // Instantiate every design point so each component registers its
    // statistics (with descriptions) in the global registry.
    std::vector<std::unique_ptr<RenderingSimulator>> sims;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SimConfig sc = SimConfig::fromConfig(cfg);
        sc.design = d;
        sims.push_back(std::make_unique<RenderingSimulator>(sc));
    }
    validateConfig(cfg, "stats");

    // Dedup by (group, stat): the four designs share components.
    std::map<std::pair<std::string, std::string>,
             std::pair<const char *, std::string>>
        rows;
    for (const auto &[display, g] : StatRegistry::instance().groups()) {
        for (const auto &kv : g->counters())
            rows[{g->name(), kv.first}] = {"counter",
                                           g->description(kv.first)};
        for (const auto &kv : g->averages())
            rows[{g->name(), kv.first}] = {"average",
                                           g->description(kv.first)};
        for (const auto &kv : g->histograms())
            rows[{g->name(), kv.first}] = {"histogram",
                                           g->description(kv.first)};
    }

    std::printf("%-44s %-10s %s\n", "statistic", "kind", "description");
    std::printf("%-44s %-10s %s\n", "---------", "----", "-----------");
    for (const auto &[key, row] : rows) {
        std::string full = key.first + "." + key.second;
        std::printf("%-44s %-10s %s\n", full.c_str(), row.first,
                    row.second.c_str());
    }
    std::printf("\n%zu statistics in %zu groups (stats registered at "
                "construction; more appear once a frame renders)\n",
                rows.size(), StatRegistry::instance().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: texpim "
                     "<render|compare|frames|sweep|report|config|stats>"
                     " ...\n");
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "render")
        return cmdRender(argc, argv);
    if (cmd == "compare")
        return cmdCompare(argc, argv);
    if (cmd == "frames")
        return cmdFrames(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "report")
        return cmdReport(argc, argv);
    if (cmd == "config")
        return cmdConfig(argc, argv);
    if (cmd == "stats")
        return cmdStats(argc, argv);
    TEXPIM_FATAL("unknown command '", cmd, "'");
}
