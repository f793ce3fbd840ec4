#include "common/trace_events.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "common/stats.hh"

namespace texpim {

TraceEvents::~TraceEvents() = default;

TraceEvents &
TraceEvents::instance()
{
    return SimContext::current().trace();
}

void
TraceEvents::syncActive()
{
    active_ = SimContext::current().trace().enabled_;
}

void
TraceEvents::enable(const std::string &path, u64 max_events)
{
    TEXPIM_ASSERT(max_events > 0, "trace event cap must be positive");
    events_.clear();
    events_.reserve(size_t(std::min<u64>(max_events, 1u << 20)));
    names_.clear();
    path_ = path;
    cap_ = max_events;
    dropped_ = 0;
    // The truncation stat lives in the registry of the context current
    // at the first enable() — the tracer's owner in every call path —
    // and reads 0 until a cap overflow actually happens.
    if (stats_ == nullptr) {
        stats_ = std::make_unique<StatGroup>("trace");
        dropped_stat_ = &stats_->counter("dropped_events",
                                         "trace events dropped at the event "
                                         "cap (raise trace_cap=N)");
    }
    enabled_ = true;
    syncActive();
}

void
TraceEvents::disable()
{
    if (!enabled_)
        return;
    enabled_ = false;
    syncActive();
    if (!path_.empty())
        flush();
    if (dropped_ > 0) {
        *dropped_stat_ += dropped_;
        TEXPIM_WARN("trace event cap reached: dropped ", dropped_,
                    " events (raise trace_cap=N)");
    }
}

void
TraceEvents::flush() const
{
    writeTextFile(path_, toJson());
}

bool
TraceEvents::reserve()
{
    if (events_.size() >= cap_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
TraceEvents::complete(const char *cat, const char *name, u32 tid, Cycle ts,
                      Cycle dur)
{
    if (!reserve())
        return;
    events_.push_back(Event{'X', tid, cat, name, ts, dur, 0.0, 0});
}

void
TraceEvents::instant(const char *cat, const char *name, u32 tid, Cycle ts)
{
    if (!reserve())
        return;
    events_.push_back(Event{'i', tid, cat, name, ts, 0, 0.0, 0});
}

void
TraceEvents::counter(const char *cat, const char *name, Cycle ts,
                     double value)
{
    if (!reserve())
        return;
    events_.push_back(Event{'C', 0, cat, name, ts, 0, value, 0});
}

const char *
TraceEvents::intern(const std::string &name)
{
    // A deque never relocates its elements, so the returned c_str()
    // stays valid for the lifetime of the buffer (names_ is cleared
    // together with events_ on enable()).
    names_.push_back(name);
    return names_.back().c_str();
}

void
TraceEvents::counterNamed(const char *cat, const std::string &name, Cycle ts,
                          double value)
{
    if (!reserve())
        return;
    events_.push_back(Event{'C', 0, cat, intern(name), ts, 0, value, 0});
}

void
TraceEvents::flowBegin(const char *cat, const char *name, u32 tid, Cycle ts,
                       u64 id)
{
    if (!reserve())
        return;
    events_.push_back(Event{'s', tid, cat, name, ts, 0, 0.0, id});
}

void
TraceEvents::flowEnd(const char *cat, const char *name, u32 tid, Cycle ts,
                     u64 id)
{
    if (!reserve())
        return;
    events_.push_back(Event{'f', tid, cat, name, ts, 0, 0.0, id});
}

std::string
TraceEvents::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.keyValue("tool", "texpim");
    w.keyValue("clock", "gpu-core-cycles");
    w.keyValue("dropped_events", dropped_);
    w.endObject();
    w.key("traceEvents").beginArray();
    for (const Event &e : events_) {
        w.beginObject();
        w.keyValue("ph", std::string(1, e.ph));
        w.keyValue("cat", e.cat);
        w.keyValue("name", e.name);
        w.keyValue("pid", 0);
        w.keyValue("tid", e.tid);
        w.keyValue("ts", e.ts);
        if (e.ph == 'X')
            w.keyValue("dur", e.dur);
        if (e.ph == 'i')
            w.keyValue("s", "t"); // thread-scoped instant
        if (e.ph == 'C') {
            w.key("args").beginObject();
            w.keyValue("value", e.value);
            w.endObject();
        }
        if (e.ph == 's' || e.ph == 'f') {
            w.keyValue("id", e.id);
            if (e.ph == 'f')
                w.keyValue("bp", "e"); // bind to the enclosing slice
        }
        w.endObject();
    }
    if (dropped_ > 0) {
        // Make truncation visible inside the viewer too, not just in
        // the stats: one final instant record naming the drop count.
        w.beginObject();
        w.keyValue("ph", "i");
        w.keyValue("cat", "trace");
        w.keyValue("name", "event_cap_truncated");
        w.keyValue("pid", 0);
        w.keyValue("tid", 0);
        w.keyValue("ts", events_.empty() ? u64(0) : events_.back().ts);
        w.keyValue("s", "g"); // global-scoped instant
        w.key("args").beginObject();
        w.keyValue("dropped_events", dropped_);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace texpim
