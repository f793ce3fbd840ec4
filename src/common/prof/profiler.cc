#include "common/prof/profiler.hh"

#include "common/sim_context.hh"
#include "common/stat_export.hh"

namespace texpim {

Profiler &
Profiler::instance()
{
    return SimContext::current().prof();
}

void
Profiler::syncActive()
{
    active_ = SimContext::current().prof().enabled_;
}

void
Profiler::enable(u64 epoch_cycles)
{
    reset();
    if (epoch_cycles > 0)
        epoch_cycles_ = epoch_cycles;
    enabled_ = true;
    syncActive();
}

void
Profiler::disable()
{
    enabled_ = false;
    syncActive();
}

void
Profiler::reset()
{
    for (ZoneRow &r : rows_)
        r = ZoneRow{};
}

u64
Profiler::selfCycles(prof::ZoneId z) const
{
    u64 children = 0;
    for (unsigned c = 1; c < prof::kZoneCount; ++c)
        if (prof::kZones[c].parent == z)
            children += rows_[c].cycles;
    u64 total = rows_[z].cycles;
    return children >= total ? 0 : total - children;
}

void
Profiler::writeJson(JsonWriter &w, bool include_wall) const
{
    w.beginArray();
    for (unsigned z = 1; z < prof::kZoneCount; ++z) {
        const ZoneRow &r = rows_[z];
        w.beginObject();
        w.keyValue("zone", prof::kZones[z].name);
        w.keyValue("desc", prof::kZones[z].description);
        w.keyValue("count", r.count);
        w.keyValue("cycles", r.cycles);
        w.keyValue("self_cycles", selfCycles(prof::ZoneId(z)));
        if (include_wall)
            w.keyValue("wall_sec", r.wallSec);
        w.endObject();
    }
    w.endArray();
}

} // namespace texpim
