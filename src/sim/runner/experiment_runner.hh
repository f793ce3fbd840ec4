/**
 * @file
 * Parallel experiment runner: execute a vector of fully independent
 * simulations (design x workload x knobs x seed) on a pool of worker
 * threads, returning results in submission order.
 *
 * Every paper figure runs such a grid; the simulations share nothing,
 * so experiment-level parallelism is safe where intra-frame
 * parallelism would not be (A-TFIM's angle cache is timing-fed).
 * Each job executes inside its own SimContext (sim_context.hh), so
 * statistics (fault counts included) and trace events are isolated per
 * simulation and the per-spec results are bit-identical whatever
 * `jobs` is — including jobs=1, which runs the specs inline on the
 * calling thread through the very same per-job-context path.
 *
 * Resilience layer (see DESIGN.md "Harness robustness"):
 *
 *  - Fault containment: every spec runs once, under a
 *    ScopedPanicHandler and a catch-all boundary, so a thrown
 *    exception, a TEXPIM_PANIC or a watchdog expiry inside one spec
 *    becomes a structured JobError in that spec's ExperimentResult
 *    instead of taking down the whole grid. The boundary sits inside
 *    the job's SimContext::Scope, so the RenderingSimulator unwinds
 *    and unregisters its stat groups before the context dies. The
 *    simulation is deterministic and injected HMC faults are counted
 *    (`hmc.crc_errors`, `hmc.vault_retries`), never aborted, so
 *    running a failed spec again could only fail the same way.
 *  - Watchdog: RunnerOptions::jobTimeoutMs arms the job context's
 *    Deadline before the spec runs; the render loop polls it at frame
 *    and tile granularity and cancels cooperatively via SimTimeout.
 *  - Checkpoint/resume: with RunnerOptions::journal set, each
 *    completed spec is appended to a JSONL sweep journal the moment
 *    it finishes; RunnerOptions::resumed feeds journal rows back so
 *    completed specs are skipped and their results reproduced
 *    bit-exactly (sweep_journal.hh).
 *
 * Determinism contract (enforced by tests/sim/test_runner_determinism
 * and test_runner_resilience): for a fixed spec vector, cycles,
 * images, stat snapshots, statuses and error categories per spec do
 * not depend on the worker count or on scheduling.
 * Consumers that reduce across specs (metrics JSON, merged stats) do
 * so in submission order, so their outputs are byte-identical too —
 * including across an interrupt/resume boundary.
 *
 * Shared textures: textures depend only on (game, seed), so run()
 * synthesizes each key's TextureStore once, keeps it until run()
 * returns, and every other spec of that key adopts it (StoreCache in
 * experiment_runner.cc; DESIGN.md "Shared texture stores"). Adopted
 * scenes are bitwise the fresh ones, so nothing above depends on
 * which spec built the store. runOne() takes the same path with a
 * cache of its own, so it builds its one scene fresh.
 *
 * Tracing: with RunnerOptions::tracePath set, job k writes its own
 * Chrome-trace file "<tracePath>.job<k>" (k = spec index, not worker
 * id, so file contents and names are schedule-independent).
 */

#ifndef TEXPIM_SIM_RUNNER_EXPERIMENT_RUNNER_HH
#define TEXPIM_SIM_RUNNER_EXPERIMENT_RUNNER_HH

#include <map>
#include <string>
#include <vector>

#include "common/sim_context.hh"
#include "sim/runner/job_error.hh"
#include "sim/simulator.hh"

namespace texpim {

class SweepJournal;

/**
 * Test/CI failure injection: make a spec fail in a controlled way so
 * the containment and watchdog paths can be exercised from the
 * CLI (sim.inject_failure=) and from tests without a genuinely broken
 * simulator build.
 */
enum class InjectedFailure
{
    None,  //!< run normally
    Throw, //!< throw std::runtime_error at the top of the job
    Panic, //!< TEXPIM_PANIC at the top of the job
    Hang,  //!< spin (polling the deadline) until the watchdog fires
};

/** One independent simulation: a design point applied to a workload
 *  frame. */
struct ExperimentSpec
{
    /** Label for tables/exports; defaultLabel() when empty. */
    std::string name;

    SimConfig config{};
    Workload workload{};
    unsigned frame = 3;   //!< camera-path position
    u64 seed = 0x7e01d;   //!< content seed

    /** Max anisotropy; 0 = defaultMaxAniso(workload.width). Callers
     *  running downscaled grids pass the paper-size default so quick
     *  runs keep the paper's resolution-dependent anisotropy. */
    unsigned maxAniso = 0;

    /** Injected failure mode (tests/CI only; see InjectedFailure). */
    InjectedFailure inject = InjectedFailure::None;

    /** "<design>/<workload label>/f<frame>". */
    std::string defaultLabel() const;
};

/** The outcome of one spec, captured before its SimContext died. */
struct ExperimentResult
{
    std::string name;     //!< spec label (resolved)

    /** Outcome; Failed/Timeout results carry a default-constructed
     *  SimResult (no image) and empty stats. */
    JobStatus status = JobStatus::Ok;

    /** The failure (category None when status is Ok). */
    JobError error{};

    SimResult result{};

    /** Per-job snapshot of every stat the simulation registered. */
    StatRegistry::Snapshot stats;

    u64 imageFnv1a = 0;   //!< imageHash() of the rendered frame
    std::string traceFile; //!< "" when tracing was off

    bool ok() const { return status == JobStatus::Ok; }
};

struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 1;

    /** Per-job Chrome-trace output: job k writes "<tracePath>.job<k>".
     *  Empty disables tracing. */
    std::string tracePath;
    u64 traceCap = TraceEvents::kDefaultEventCap;

    /** inform() one line as each job finishes. */
    bool verbose = false;

    /** Watchdog deadline per spec, in milliseconds; 0 disables the
     *  watchdog entirely (zero-overhead: the render loop's poll is a
     *  single predictable branch). sim.job_timeout_ms= */
    u64 jobTimeoutMs = 0;

    /** Sweep journal to append each completed spec to (checkpoint);
     *  not owned. null disables journaling. */
    SweepJournal *journal = nullptr;

    /** Results restored from a journal (resume): specs whose index
     *  appears here are not re-run — the stored result is returned
     *  verbatim and not re-appended to the journal. Not owned. */
    const std::map<size_t, ExperimentResult> *resumed = nullptr;
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions opt = {});

    /**
     * Execute every spec and return results in submission order
     * (results[i] corresponds to specs[i], whatever thread ran it).
     * Failures are contained: a throwing, panicking or timed-out spec
     * yields a Failed/Timeout result; run() itself only propagates
     * harness bugs.
     */
    std::vector<ExperimentResult> run(const std::vector<ExperimentSpec> &specs);

    /** The resolved worker count run() will use. */
    unsigned effectiveJobs(size_t num_specs) const;

    /**
     * Execute one spec in the *current* SimContext (run() wraps this
     * in a fresh context per spec; tests may call it directly).
     * NOT contained: whatever the simulation throws propagates.
     */
    static ExperimentResult runOne(const ExperimentSpec &spec);

  private:
    /** The texture stores one run() shares between its specs. */
    class StoreCache;

    /** runOne(), sharing the spec's texture store through `cache`. */
    static ExperimentResult runOne(const ExperimentSpec &spec,
                                   StoreCache &cache);

    /**
     * Run `spec` once, contained, in the current SimContext: arms the
     * watchdog, installs the panic handler, converts any escape into a
     * Failed/Timeout result carrying a JobError.
     */
    ExperimentResult runContained(const ExperimentSpec &spec, size_t index,
                                  StoreCache &cache) const;

    RunnerOptions opt_;
};

/** Faults injected into a spec's HMC: every fault site firing is one
 *  `hmc.crc_errors` or one `hmc.vault_retries`. 0 when the snapshot
 *  has neither (Baseline has no HMC; failed specs have no stats). */
u64 injectedFaults(const StatRegistry::Snapshot &stats);

/** Sum the per-job stat snapshots in submission order (deterministic;
 *  see mergeSnapshots()). Failed specs contribute their (empty)
 *  snapshots, so the merge is schedule- and failure-shape-stable. */
StatRegistry::Snapshot
mergedStats(const std::vector<ExperimentResult> &results);

} // namespace texpim

#endif // TEXPIM_SIM_RUNNER_EXPERIMENT_RUNNER_HH
