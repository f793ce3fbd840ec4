/**
 * @file
 * Cycle-level event tracing in the Chrome trace-event JSON format
 * (loadable in chrome://tracing and Perfetto).
 *
 * The simulator's hot paths are instrumented with the TEXPIM_TRACE_*
 * macros below. With the tracer not enabled, each macro costs a single
 * predictable branch on a thread-local flag — no virtual call, no
 * allocation, no lock.
 *
 * Each TraceEvents instance is owned by a SimContext (sim_context.hh)
 * and is single-threaded within it: instance() resolves to the calling
 * thread's current context's tracer, and the fast-path active() flag
 * is a thread-local mirror of that tracer's enabled state, kept in
 * sync by enable()/disable() and by SimContext::Scope switches. One
 * worker thread tracing its own simulation never observes another's
 * buffer.
 *
 * Timestamps are GPU core cycles emitted as-is in the "ts" field
 * (1 cycle displays as 1 us in the viewers). Event kinds used:
 *
 *  - complete(): a single "X" event with a duration, the one kind
 *                for anything that takes time (tiles, frames,
 *                texture requests in flight, DRAM accesses). One
 *                event per duration, so the cap never splits one.
 *  - instant():  a point event ("i").
 *  - counter():  a "C" counter track sample. counterNamed() takes a
 *                runtime-built track name (e.g. per-vault utilization
 *                tracks), interned by the tracer.
 *  - flowBegin()/flowEnd(): an "s"/"f" flow-arrow pair tied by a
 *                numeric id, drawn by the viewers as an arrow from the
 *                producing event to the consuming one (used to link a
 *                tile's phase-1 record stream to its phase-2 replay).
 *
 * Events are buffered in memory and written as one JSON document when
 * the tracer is disabled (or flushed); an event cap bounds the buffer.
 * Overflow is never silent: dropped events are counted in dropped(),
 * surfaced as a `trace.dropped_events` statistic when the tracer is
 * disabled, and the JSON document carries both an
 * otherData.dropped_events field and a final "event_cap_truncated"
 * instant record. Category and name strings must be string literals
 * (the tracer stores the pointers) unless the *Named variant is used.
 */

#ifndef TEXPIM_COMMON_TRACE_EVENTS_HH
#define TEXPIM_COMMON_TRACE_EVENTS_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace texpim {

class StatCounter;
class StatGroup;

class TraceEvents
{
  public:
    static constexpr u64 kDefaultEventCap = 1'000'000;

    TraceEvents() = default;
    ~TraceEvents(); // out of line: StatGroup is incomplete here

    TraceEvents(const TraceEvents &) = delete;
    TraceEvents &operator=(const TraceEvents &) = delete;

    /** The calling thread's current context's tracer (compatibility
     *  shim for SimContext::current().trace()). */
    static TraceEvents &instance();

    /** Fast path guard read by the macros: is the current context's
     *  tracer enabled? */
    static bool active() { return active_; }

    /** Re-derive active() from the current context's tracer. Called on
     *  enable/disable and by SimContext::Scope switches. */
    static void syncActive();

    /** Is *this* tracer recording? (active() answers for the current
     *  context's tracer instead.) */
    bool enabled() const { return enabled_; }

    /**
     * Start recording into an in-memory buffer destined for `path`.
     * At most `max_events` JSON events are kept; the rest are dropped
     * and counted.
     */
    void enable(const std::string &path,
                u64 max_events = kDefaultEventCap);

    /**
     * Stop recording and write the trace file (no-op when idle). When
     * the event cap truncated the trace, the drop count is published
     * as the `trace.dropped_events` statistic of the current context.
     */
    void disable();

    /** Write the current buffer to the output path without stopping. */
    void flush() const;

    /** Serialize the current buffer as a Chrome-trace JSON document. */
    std::string toJson() const;

    u64 recorded() const { return events_.size(); }
    u64 dropped() const { return dropped_; }
    const std::string &path() const { return path_; }

    void complete(const char *cat, const char *name, u32 tid, Cycle ts,
                  Cycle dur);
    void instant(const char *cat, const char *name, u32 tid, Cycle ts);
    void counter(const char *cat, const char *name, Cycle ts, double value);

    /** counter() with a runtime-built track name; the name is interned
     *  by this tracer (per-vault/per-texture utilization tracks). */
    void counterNamed(const char *cat, const std::string &name, Cycle ts,
                      double value);

    /** Flow-arrow start: the producing end, tied to flowEnd by `id`. */
    void flowBegin(const char *cat, const char *name, u32 tid, Cycle ts,
                   u64 id);
    /** Flow-arrow end: the consuming end (Chrome "f", bp=e). */
    void flowEnd(const char *cat, const char *name, u32 tid, Cycle ts,
                 u64 id);

  private:
    struct Event
    {
        char ph;         //!< 'X', 'i', 'C', 's' or 'f'
        u32 tid;
        const char *cat; //!< literal; not owned
        const char *name; //!< literal or interned in names_
        u64 ts;
        u64 dur;         //!< 'X' only
        double value;    //!< 'C' only
        u64 id;          //!< 's'/'f' flow-binding id
    };

    /** Room for one more event? Counts the drop when there is not. */
    bool reserve();

    /** Intern a runtime-built name (stable storage for Event::name). */
    const char *intern(const std::string &name);

    /** Thread-local mirror of the current context's tracer enabled_
     *  flag — one branch on the macro fast path, per thread. */
    inline static thread_local bool active_ = false;

    std::vector<Event> events_;
    std::deque<std::string> names_; //!< interned counterNamed tracks
    std::string path_;
    u64 cap_ = kDefaultEventCap;
    u64 dropped_ = 0;
    bool enabled_ = false;
    /** Owns the `trace.dropped_events` stat; created lazily on the
     *  first enable() so construction never touches the (possibly
     *  still-constructing) owning SimContext's registry. */
    std::unique_ptr<StatGroup> stats_;
    StatCounter *dropped_stat_ = nullptr; //!< stats_' dropped_events
};

} // namespace texpim

#define TEXPIM_TRACE_COMPLETE(cat, name, tid, ts, dur) \
    do { \
        if (::texpim::TraceEvents::active()) \
            ::texpim::TraceEvents::instance().complete((cat), (name), \
                                                       (tid), (ts), (dur)); \
    } while (0)

#define TEXPIM_TRACE_INSTANT(cat, name, tid, ts) \
    do { \
        if (::texpim::TraceEvents::active()) \
            ::texpim::TraceEvents::instance().instant((cat), (name), (tid), \
                                                      (ts)); \
    } while (0)

#define TEXPIM_TRACE_COUNTER(cat, name, ts, value) \
    do { \
        if (::texpim::TraceEvents::active()) \
            ::texpim::TraceEvents::instance().counter((cat), (name), (ts), \
                                                      (value)); \
    } while (0)

#define TEXPIM_TRACE_FLOW_BEGIN(cat, name, tid, ts, id) \
    do { \
        if (::texpim::TraceEvents::active()) \
            ::texpim::TraceEvents::instance().flowBegin((cat), (name), \
                                                        (tid), (ts), (id)); \
    } while (0)

#define TEXPIM_TRACE_FLOW_END(cat, name, tid, ts, id) \
    do { \
        if (::texpim::TraceEvents::active()) \
            ::texpim::TraceEvents::instance().flowEnd((cat), (name), (tid), \
                                                      (ts), (id)); \
    } while (0)

#endif // TEXPIM_COMMON_TRACE_EVENTS_HH
