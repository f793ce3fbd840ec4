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
 * statistics, trace events and fault accounting are isolated per
 * simulation and the per-spec results are bit-identical whatever
 * `jobs` is — including jobs=1, which runs the specs inline on the
 * calling thread through the very same per-job-context path.
 *
 * Resilience layer (see DESIGN.md "Harness robustness"):
 *
 *  - Fault containment: every attempt runs under a ScopedPanicHandler
 *    and a catch-all boundary, so a thrown exception, a TEXPIM_PANIC
 *    or a watchdog expiry inside one spec becomes a structured
 *    JobError in that spec's ExperimentResult instead of taking down
 *    the whole grid. The boundary sits inside the job's
 *    SimContext::Scope, so the RenderingSimulator unwinds and
 *    unregisters its stats/fault sites before the context dies.
 *  - Watchdog: RunnerOptions::jobTimeoutMs arms the job context's
 *    Deadline before each attempt; the render loop polls it at frame
 *    and tile granularity and cancels cooperatively via SimTimeout.
 *  - Retry: a panicking spec re-runs up to maxRetries times, at once.
 *    Each retry gets a fresh SimContext and — when fault injection is
 *    on — a fault seed remixed per attempt through faultSiteSeed(), so
 *    a fault-pattern-triggered panic is not deterministically replayed
 *    (the simulation is deterministic, so nothing else could change
 *    the outcome). Exceptions and timeouts are never retried.
 *  - Checkpoint/resume: with RunnerOptions::journal set, each
 *    completed spec is appended to a JSONL sweep journal the moment
 *    it finishes; RunnerOptions::resumed feeds journal rows back so
 *    completed specs are skipped and their results reproduced
 *    bit-exactly (sweep_journal.hh).
 *
 * Determinism contract (enforced by tests/sim/test_runner_determinism
 * and test_runner_resilience): for a fixed spec vector, cycles,
 * images, stat snapshots, fault totals, statuses and error categories
 * per spec do not depend on the worker count or on scheduling.
 * Consumers that reduce across specs (metrics JSON, merged stats) do
 * so in submission order, so their outputs are byte-identical too —
 * including across an interrupt/resume boundary.
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
 * the containment, watchdog and retry paths can be exercised from the
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

    /** Inject only while attempt < injectUntilAttempt: the default
     *  (~0u) fails every attempt; 1 fails the first attempt and then
     *  succeeds — the retry-then-succeed shape tests pin down. */
    unsigned injectUntilAttempt = ~0u;

    /** Zero-based attempt number, set by the runner on each retry
     *  (callers leave it 0). */
    unsigned attempt = 0;

    /** "<design>/<workload label>/f<frame>". */
    std::string defaultLabel() const;
};

/** The outcome of one spec, captured before its SimContext died. */
struct ExperimentResult
{
    std::string name;     //!< spec label (resolved)

    /** Final outcome after retries; Failed/Timeout results carry a
     *  default-constructed SimResult (no image) and empty stats. */
    JobStatus status = JobStatus::Ok;

    /** The last attempt's failure (category None when status is Ok). */
    JobError error{};

    /** Attempts consumed (1 = succeeded or failed without retrying). */
    unsigned attempts = 1;

    SimResult result{};

    /** Per-job snapshot of every stat the simulation registered. */
    StatRegistry::Snapshot stats;

    u64 imageFnv1a = 0;   //!< imageHash() of the rendered frame
    u64 totalFaults = 0;  //!< FaultRegistry::totalFaults() of the job
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

    /** Watchdog deadline per attempt, in milliseconds; 0 disables the
     *  watchdog entirely (zero-overhead: the render loop's poll is a
     *  single predictable branch). sim.job_timeout_ms= */
    u64 jobTimeoutMs = 0;

    /** Re-run a panicked spec up to this many extra times. Panics are
     *  the category injected faults abort through; plain exceptions
     *  (deterministic config/scene errors would just fail again) and
     *  timeouts (they already cost a full deadline) are not retried.
     *  runner.max_retries= */
    unsigned maxRetries = 0;

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
     * in a fresh context per attempt; tests may call it directly).
     * NOT contained: whatever the simulation throws propagates.
     */
    static ExperimentResult runOne(const ExperimentSpec &spec);

    /**
     * One contained attempt of `spec` in the current SimContext: arms
     * the watchdog, installs the panic handler, converts any escape
     * into a Failed/Timeout result carrying a JobError. Remixes the
     * fault seed on attempts > 0.
     */
    ExperimentResult runAttempt(const ExperimentSpec &spec, size_t index,
                                unsigned attempt) const;

  private:
    RunnerOptions opt_;
};

/** Sum the per-job stat snapshots in submission order (deterministic;
 *  see mergeSnapshots()). Failed specs contribute their (empty)
 *  snapshots, so the merge is schedule- and failure-shape-stable. */
StatRegistry::Snapshot
mergedStats(const std::vector<ExperimentResult> &results);

} // namespace texpim

#endif // TEXPIM_SIM_RUNNER_EXPERIMENT_RUNNER_HH
