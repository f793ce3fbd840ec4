/**
 * @file
 * texpim-lint: a project-specific determinism & invariant checker.
 *
 * A token/AST-lite scanner (no libclang, builds everywhere CI does)
 * that encodes TexPIM's reproducibility discipline as named,
 * individually-suppressible rules:
 *
 *   [D1] no nondeterminism sources in src/ (rand(), std::random_device,
 *        wall clocks, time(), getenv) — every
 *        stochastic or environment-dependent choice must flow through
 *        the seeded common/rng.hh or the Config surface.
 *   [D2] no range-for / iterator loops over std::unordered_map /
 *        std::unordered_set: iteration order is stdlib- and
 *        seed-dependent, which silently breaks bit-identical stats,
 *        exports, images and replay streams.
 *   [D3] std::sort on sim-ordering data must either be std::stable_sort
 *        or carry a written total-order argument ("tie-break:" /
 *        "total order" in a nearby comment): equal-key order under
 *        std::sort is unspecified and stdlib-dependent.
 *   [D4] no mutable namespace/function-`static` state in src/ that is
 *        not thread_local, const/constexpr, or a registry-owned
 *        singleton (annotated): racy statics broke parallel sweeps in
 *        PR 3.
 *   [C1] every config key referenced in source must appear in the
 *        known-key table in src/gpu/params.cc and in the README
 *        configuration-reference table, and vice versa (catches dead
 *        knobs and undocumented ones); every key a marked
 *        command-key table (the CLI's commandOnlyKeys()) names must be
 *        in the known-key table.
 *   [A0] every `texpim-lint: allow(...)` annotation must carry a
 *        written justification.
 *
 * Call-graph rules (reachability from declared functional-phase roots,
 * see tools/lint/callgraph.hh for the indexer):
 *
 *   [P1] nothing reachable from a phase root may touch a serial-only
 *        API: StatGroup/Stat* mutation, StatRegistry, TraceEvents,
 *        TEXPIM_PROF_* zone charges, FaultInjector. The functional
 *        phase runs concurrently on the render pool; any of these
 *        breaks DESIGN's "Deterministic attribution" rules.
 *   [R1] nothing reachable from a timing-replay root (`texpim-lint:
 *        replay-root`: Renderer::replayPhase and every override of
 *        TexturePath::replay and MemorySystem::access) may call the
 *        name-keyed StatGroup::counter/average/histogram: timing code
 *        updates the references it took at registration, so the
 *        per-request path never builds a string or walks a map.
 *   [P2] nothing reachable from a phase root may write non-const,
 *        non-thread_local namespace/static state or its own object's
 *        members, outside classes annotated `texpim-lint:
 *        caller-owned` (caller-owned scratch such as ReplayStream /
 *        SamplerScratch is thread-private by construction).
 *   [T1] classes annotated `texpim-lint: pool-shared` (textures,
 *        scenes, meshes — one instance read by every render-pool
 *        worker) must expose only const methods to the recorded phase;
 *        non-const calls on shared receivers are flagged.
 *   [E1] nothing reachable from a destructor or a noexcept function
 *        may TEXPIM_PANIC or throw: the PR-7 panic-containment path
 *        converts panics to exceptions, and an escape through a
 *        noexcept frame is std::terminate.
 *
 * Suppression: `// texpim-lint: allow(D2) <reason>` on the offending
 * line or the line above it. Every other finding fails the run.
 */

#ifndef TEXPIM_TOOLS_LINT_LINT_HH
#define TEXPIM_TOOLS_LINT_LINT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace texpim_lint {

struct Finding
{
    std::string rule;    //!< "D1" ... "C1", "A0"
    std::string path;    //!< repo-relative, '/'-separated
    int line = 0;        //!< 1-based
    std::string key;     //!< stable tie-break token for ordering
    std::string message; //!< human-readable diagnostic
};

/** One scanned file with comment/string-stripped views and the
 *  allow() annotations found in its comments. */
struct SourceFile
{
    std::string path; //!< repo-relative

    std::vector<std::string> raw;  //!< verbatim lines
    /** Comments and string/char literals blanked with spaces (layout
     *  and line numbers preserved). */
    std::vector<std::string> code;
    /** Comments blanked, string literals kept (for rules that read
     *  key/stat-name literals). */
    std::vector<std::string> codeStr;

    /** allow() annotations: line -> suppressed rule ids. An annotation
     *  covers its own line and up to three following lines. */
    std::map<int, std::set<std::string>> allow;
    /** `texpim-lint: phase-root <reason>` markers: line -> reason.
     *  Declares the function/method/lambda defined at (or just below)
     *  that line a functional-phase root for P1/P2/T1. */
    std::map<int, std::string> phaseRoot;
    /** `texpim-lint: replay-root <reason>` markers: line -> reason.
     *  Declares the function defined (or the method declared) at or
     *  just below that line a timing-replay root for R1. */
    std::map<int, std::string> replayRoot;
    /** `texpim-lint: pool-shared <reason>` markers: the class defined
     *  at (or just below) that line is shared read-only across the
     *  render pool — T1 flags non-const calls on it from the phase. */
    std::map<int, std::string> poolShared;
    /** `texpim-lint: caller-owned <reason>` markers: the class defined
     *  at (or just below) that line is caller-owned scratch — P2
     *  permits its methods to write their own members. */
    std::map<int, std::string> callerOwned;
    /** A0 findings produced while parsing annotations. */
    std::vector<Finding> annotationFindings;

    bool inSrc = false;
    bool inBench = false;
    bool inTests = false;
};

struct Options
{
    std::string repoRoot = ".";
    std::vector<std::string> roots; //!< scan roots relative to repoRoot
    std::set<std::string> rules;    //!< empty = all rules
    std::string keyTablePath;       //!< default src/gpu/params.cc
    std::vector<std::string> docPaths; //!< default README.md DESIGN.md
    bool callgraphDump = false;     //!< print the call graph and exit
};

bool ruleEnabled(const Options &opt, const std::string &rule);

/** Is `rule` suppressed at `line` (1-based) of `f`? */
bool isAllowed(const SourceFile &f, int line, const std::string &rule);

/** Load and pre-process one file (never fails; unreadable files come
 *  back empty). `relPath` is the repo-relative path used in
 *  diagnostics. */
SourceFile loadSource(const std::string &absPath,
                      const std::string &relPath);

/** Rules D1-D4 and A0 over the scanned file set. */
void runTextRules(const std::vector<SourceFile> &files, const Options &opt,
                  std::vector<Finding> &out);

/** Rule C1: config-key cross-check between source references, the
 *  known-key table and the documentation table. */
void runConfigRule(const std::vector<SourceFile> &files, const Options &opt,
                   std::vector<Finding> &out);

/** Call-graph rules P1/P2/T1/E1/R1 (see tools/lint/callgraph.hh). When
 *  opt.callgraphDump is set, prints the graph to stdout instead. */
void runPhaseRules(const std::vector<SourceFile> &files, const Options &opt,
                   std::vector<Finding> &out);

} // namespace texpim_lint

#endif // TEXPIM_TOOLS_LINT_LINT_HH
