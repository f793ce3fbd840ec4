/**
 * @file
 * Global registry of every live StatGroup.
 *
 * StatGroup's constructor/destructor add and remove groups, so the
 * registry always reflects exactly the components that currently
 * exist; no component changes are needed to be enumerable. The
 * registry supports:
 *
 *  - deterministic hierarchical enumeration: groups ordered by
 *    (name, registration sequence), with duplicate group names
 *    disambiguated as "name#2", "name#3", ... so exports never emit
 *    colliding keys;
 *  - whole-simulation snapshot / delta of the monotone scalar parts of
 *    every statistic (counter values, average sums/counts, histogram
 *    sample counts), the building block for per-frame accounting.
 *
 * One registry belongs to one SimContext (sim_context.hh); instance()
 * resolves to the calling thread's current context's registry, so the
 * registry itself stays single-threaded — concurrent simulations each
 * enumerate and mutate only their own.
 */

#ifndef TEXPIM_COMMON_STAT_REGISTRY_HH
#define TEXPIM_COMMON_STAT_REGISTRY_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace texpim {

class StatRegistry
{
  public:
    StatRegistry() = default;

    /** The calling thread's current context's registry (compatibility
     *  shim for SimContext::current().stats()). */
    static StatRegistry &instance();

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Number of live groups. */
    size_t size() const { return entries_.size(); }

    /**
     * Every live group with its unique display name, ordered by
     * (group name, registration sequence). The display name equals the
     * group name, or "name#k" (k >= 2) for later same-named groups.
     */
    std::vector<std::pair<std::string, const StatGroup *>> groups() const;

    /**
     * A snapshot of the monotone scalars of every stat, keyed
     * "<display>.<stat>[.facet]". Facets: counters have none, averages
     * have ".sum" and ".count", histograms have ".samples".
     */
    using Snapshot = std::map<std::string, double>;

    Snapshot snapshot() const;

    /**
     * Current values minus `since`. Stats that did not exist at
     * snapshot time contribute their full current value; stats that
     * have been reset since the snapshot show up negative (callers
     * doing per-frame deltas should re-snapshot after each reset).
     */
    Snapshot delta(const Snapshot &since) const;

  private:
    friend class StatGroup;

    void add(StatGroup *g);
    void remove(StatGroup *g);

    struct Entry
    {
        StatGroup *group;
        u64 seq;
    };

    std::vector<Entry> entries_;
    u64 next_seq_ = 0;
};

} // namespace texpim

#endif // TEXPIM_COMMON_STAT_REGISTRY_HH
