/**
 * @file
 * Per-simulation observability context.
 *
 * A SimContext owns one instance of each formerly process-global
 * registry — the StatRegistry components register their StatGroups
 * with and the TraceEvents buffer the TEXPIM_TRACE_* macros record
 * into. Giving every concurrent simulation its own context is what
 * makes the parallel ExperimentRunner sound: two RenderingSimulators
 * running on different worker threads never touch the same registry,
 * so their statistics (fault counts included) and traces stay
 * bit-identical to a serial run.
 *
 * Routing: components do not pass a context around explicitly. They
 * reach their registries through SimContext::current(), a thread-local
 * pointer installed with the RAII SimContext::Scope. When no scope is
 * active, current() falls back to the process-wide default context —
 * that fallback IS the compatibility shim that keeps the single-run
 * CLI path, the tests and every existing call through
 * StatRegistry::instance() / TraceEvents::instance() working
 * unchanged.
 *
 * Ownership rules (enforced by assertions in the owners):
 *
 *  - a StatGroup captures the registry of the context current at its
 *    *construction* and unregisters from that same registry at
 *    destruction, so objects may outlive a scope switch without
 *    corrupting a foreign registry;
 *  - a RenderingSimulator must render under the same context it was
 *    built under (its components registered there);
 *  - a Scope must be destroyed on the thread that created it, in LIFO
 *    order (plain RAII nesting guarantees both).
 */

#ifndef TEXPIM_COMMON_SIM_CONTEXT_HH
#define TEXPIM_COMMON_SIM_CONTEXT_HH

#include "common/deadline.hh"
#include "common/prof/profiler.hh"
#include "common/stat_registry.hh"
#include "common/trace_events.hh"

namespace texpim {

class SimContext
{
  public:
    SimContext() = default;

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * The context the calling thread currently operates in: the
     * innermost live Scope's context, or the process-wide default
     * context when no scope is active.
     */
    static SimContext &current();

    /** The process-wide fallback context (the single-run CLI path). */
    static SimContext &processDefault();

    StatRegistry &stats() { return stats_; }
    TraceEvents &trace() { return trace_; }
    Profiler &prof() { return prof_; }
    Deadline &deadline() { return deadline_; }

    const StatRegistry &stats() const { return stats_; }
    const TraceEvents &trace() const { return trace_; }
    const Profiler &prof() const { return prof_; }
    const Deadline &deadline() const { return deadline_; }

    /**
     * RAII installer: makes `ctx` the calling thread's current context
     * for the lifetime of the Scope, restoring the previous context
     * (and the tracer's fast-path activity flag) on destruction.
     */
    class Scope
    {
      public:
        explicit Scope(SimContext &ctx);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SimContext *prev_;
    };

  private:
    StatRegistry stats_;
    TraceEvents trace_;
    Profiler prof_;
    Deadline deadline_;
};

} // namespace texpim

#endif // TEXPIM_COMMON_SIM_CONTEXT_HH
