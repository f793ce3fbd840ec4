/**
 * @file
 * Cycle-domain profiler: hierarchical self/total accounting of where
 * simulated cycles (and, separately, host wall-clock) go, charged to
 * the static zone table in prof/zones.hh.
 *
 * The profiler mirrors the tracer's ownership and fast-path contract
 * (trace_events.hh): one Profiler per SimContext, a thread-local
 * active() flag kept in sync by enable()/disable() and by
 * SimContext::Scope switches, and macros that cost a single
 * predictable branch when profiling is off — nothing else. With the
 * profiler disabled no zone is ever touched, so host-time benchmark
 * numbers are unaffected.
 *
 * Determinism contract (rules D1-D4, see DESIGN.md "Deterministic
 * attribution"): counts and simulated cycles are charged only from
 * serial code — the geometry phase, the phase-2 replay and post-phase
 * summaries on the coordinating thread — never from phase-1 worker
 * threads. The profiler reads no clock: its host wall-clock column is
 * FrameStats' wall fields, added once per frame by Renderer::finishTail,
 * and is excluded from the deterministic export (writeJson) unless
 * explicitly requested. The deterministic sections are therefore
 * byte-identical across gpu.render_threads and jobs settings.
 */

#ifndef TEXPIM_COMMON_PROF_PROFILER_HH
#define TEXPIM_COMMON_PROF_PROFILER_HH

#include "common/prof/zones.hh"
#include "common/types.hh"

namespace texpim {

class JsonWriter;

class Profiler
{
  public:
    Profiler() = default;

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** The calling thread's current context's profiler. */
    static Profiler &instance();

    /** Fast-path guard read by the TEXPIM_PROF_* macros. */
    static bool active() { return active_; }

    /** Re-derive active() from the current context's profiler. Called
     *  on enable/disable and by SimContext::Scope switches. */
    static void syncActive();

    bool enabled() const { return enabled_; }

    /**
     * Start charging. `epoch_cycles` is the sampling period of the
     * traffic-attribution utilization counters (prof.epoch_cycles); 0
     * keeps the default. Zone accumulators are cleared.
     */
    void enable(u64 epoch_cycles = 0);

    /** Stop charging (accumulated values stay readable). */
    void disable();

    /** Epoch period for utilization counters (cycles). */
    u64 epochCycles() const { return epoch_cycles_; }

    // ---- charging (call through the macros, which check active()) ----

    /** Charge `cycles` simulated cycles and one event to `z`. */
    void
    addCycles(prof::ZoneId z, u64 cycles)
    {
        rows_[z].count += 1;
        rows_[z].cycles += cycles;
    }

    /** Charge `n` events (no cycle cost) to `z`. */
    void addCount(prof::ZoneId z, u64 n) { rows_[z].count += n; }

    /** Charge host wall-clock seconds to `z` (FrameStats' wall fields,
     *  from Renderer::finishTail). */
    void addWall(prof::ZoneId z, double sec) { rows_[z].wallSec += sec; }

    // ---- inspection / export ----

    struct ZoneRow
    {
        u64 count = 0;      //!< charged events
        u64 cycles = 0;     //!< simulated cycles (total, incl. children)
        double wallSec = 0; //!< host wall-clock (total, incl. children)
    };

    const ZoneRow &row(prof::ZoneId z) const { return rows_[z]; }

    /** Simulated cycles of `z` minus its children's (never negative). */
    u64 selfCycles(prof::ZoneId z) const;

    /**
     * The zone tree as a JSON array of
     * {"zone","desc","count","cycles","self_cycles"} rows in table
     * order (deterministic). `include_wall` adds the host "wall_sec"
     * field — off by default so profile files stay byte-identical
     * across hosts and thread counts.
     */
    void writeJson(JsonWriter &w, bool include_wall = false) const;

    void reset();

  private:
    /** Thread-local mirror of the current context's enabled_ flag. */
    inline static thread_local bool active_ = false;

    ZoneRow rows_[prof::kZoneCount]{};
    u64 epoch_cycles_ = kDefaultEpochCycles;
    bool enabled_ = false;

  public:
    static constexpr u64 kDefaultEpochCycles = 65536;
};

} // namespace texpim

/** Compile-time check that `zone` is a constant TEXPIM_ZONE_TABLE row. */
#define TEXPIM_PROF_ZONE_CHECK(zone)                                          \
    static_assert((zone) > ::texpim::prof::kZoneNone &&                       \
                      (zone) < ::texpim::prof::kZoneCount,                    \
                  "profile zone must be a TEXPIM_ZONE_TABLE row")

/** Charge `cycles` simulated cycles (and one event) to a zone. */
#define TEXPIM_PROF_CYCLES(zone, cycles)                                      \
    do {                                                                      \
        TEXPIM_PROF_ZONE_CHECK(zone);                                         \
        if (::texpim::Profiler::active())                                     \
            ::texpim::Profiler::instance().addCycles((zone), (cycles));       \
    } while (0)

/** Charge `n` events to a zone. */
#define TEXPIM_PROF_COUNT(zone, n)                                            \
    do {                                                                      \
        TEXPIM_PROF_ZONE_CHECK(zone);                                         \
        if (::texpim::Profiler::active())                                     \
            ::texpim::Profiler::instance().addCount((zone), (n));             \
    } while (0)

#endif // TEXPIM_COMMON_PROF_PROFILER_HH
