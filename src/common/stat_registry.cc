#include "common/stat_registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/sim_context.hh"

namespace texpim {

StatRegistry &
StatRegistry::instance()
{
    return SimContext::current().stats();
}

void
StatRegistry::add(StatGroup *g)
{
    entries_.push_back(Entry{g, next_seq_++});
}

void
StatRegistry::remove(StatGroup *g)
{
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [g](const Entry &e) { return e.group == g; });
    TEXPIM_ASSERT(it != entries_.end(),
                  "unregistering a StatGroup that was never registered");
    entries_.erase(it);
}

std::vector<std::pair<std::string, const StatGroup *>>
StatRegistry::groups() const
{
    std::vector<Entry> sorted = entries_;
    // tie-break: the registration sequence number disambiguates groups
    // sharing a display name, so the comparison is a total order.
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.group->name() != b.group->name())
                      return a.group->name() < b.group->name();
                  return a.seq < b.seq;
              });

    std::vector<std::pair<std::string, const StatGroup *>> out;
    out.reserve(sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
        std::string display = sorted[i].group->name();
        // Count same-named predecessors to disambiguate duplicates.
        size_t k = 1;
        while (i >= k && sorted[i - k].group->name() == display)
            ++k;
        if (k > 1)
            display += "#" + std::to_string(k);
        out.emplace_back(std::move(display), sorted[i].group);
    }
    return out;
}

StatRegistry::Snapshot
StatRegistry::snapshot() const
{
    Snapshot snap;
    for (const auto &[display, g] : groups()) {
        for (const auto &kv : g->counters())
            snap[display + "." + kv.first] = double(kv.second.value());
        for (const auto &kv : g->averages()) {
            snap[display + "." + kv.first + ".sum"] = kv.second.sum();
            snap[display + "." + kv.first + ".count"] =
                double(kv.second.count());
        }
        for (const auto &kv : g->histograms())
            snap[display + "." + kv.first + ".samples"] =
                double(kv.second.samples());
    }
    return snap;
}

StatRegistry::Snapshot
StatRegistry::delta(const Snapshot &since) const
{
    Snapshot now = snapshot();
    for (auto &kv : now) {
        auto it = since.find(kv.first);
        if (it != since.end())
            kv.second -= it->second;
    }
    return now;
}

} // namespace texpim
