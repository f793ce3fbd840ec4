/**
 * @file
 * MSHR-style outstanding-miss tracker.
 *
 * When several texel fetches in flight touch the same cache line, only
 * the first goes to memory; the rest merge onto the outstanding entry
 * and inherit its completion cycle. Entries whose completion time has
 * passed are pruned lazily.
 */

#ifndef TEXPIM_CACHE_OUTSTANDING_HH
#define TEXPIM_CACHE_OUTSTANDING_HH

#include <unordered_map>

#include "common/types.hh"

namespace texpim {

class OutstandingMisses
{
  public:
    /**
     * If `line` is already outstanding at `now`, return its completion
     * cycle (a merge); otherwise return kNeverCycle.
     */
    Cycle
    lookup(Addr line, Cycle now)
    {
        maybePrune(now);
        auto it = pending_.find(line);
        if (it == pending_.end() || it->second <= now)
            return kNeverCycle;
        return it->second;
    }

    /** Record a new outstanding miss completing at `ready`. */
    void
    insert(Addr line, Cycle ready)
    {
        pending_[line] = ready;
    }

    size_t inFlight() const { return pending_.size(); }

    void
    clear()
    {
        pending_.clear();
    }

  private:
    void
    maybePrune(Cycle now)
    {
        // Amortized cleanup: prune at most every 4096 lookups.
        if (++lookups_since_prune_ < 4096)
            return;
        lookups_since_prune_ = 0;
        // Invariant argument for iterating the unordered map: this is
        // an erase-only sweep — every expired entry is removed no
        // matter the visit order, nothing is read out, and no stat,
        // export or replay stream observes the order, so the surviving
        // set (and every later lookup/merge) is order-invariant.
        // texpim-lint: allow(D2) erase-only sweep, order-invariant
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second <= now)
                it = pending_.erase(it);
            else
                ++it;
        }
    }

    std::unordered_map<Addr, Cycle> pending_;
    unsigned lookups_since_prune_ = 0;
};

} // namespace texpim

#endif // TEXPIM_CACHE_OUTSTANDING_HH
