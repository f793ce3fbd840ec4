/**
 * @file
 * Graceful PIM→host degradation policy.
 *
 * A production renderer must not hang because a memory-side offload
 * path misbehaves. The S-TFIM/A-TFIM paths consult a PimRobustness
 * policy around every offload:
 *
 *  - deadline: each offload package carries a deadline
 *    (`fault_package_timeout=` cycles end-to-end). When the package —
 *    or the whole offload round trip — blows the deadline, the host
 *    gives up waiting and refilters the request on the host side with
 *    B-PIM semantics (ordinary reads over the external links, host
 *    ALUs), completing from the deadline instead of whenever the cube
 *    would have answered.
 *
 *  - circuit breaker: when a cube's observed link retry rate
 *    (retransmissions / packets) crosses `fault_degrade_retry_rate=`,
 *    requests routed to that cube bypass the offload entirely and run
 *    host-side until the rate recovers.
 *
 * Only *where* filtering runs changes — the filtering math is
 * identical — so the rendered image stays bit-identical to a
 * fault-free run; the cost shows up in cycles and in the `pim` stat
 * group (`pim.fallbacks`, `pim.timeouts`, `pim.retry_rate_trips`).
 * With both knobs at their 0 (off) defaults every check is a flag
 * test and the paths behave exactly as before.
 */

#ifndef TEXPIM_PIM_ROBUSTNESS_HH
#define TEXPIM_PIM_ROBUSTNESS_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "mem/hmc.hh"

namespace texpim {

struct RobustnessParams
{
    /** End-to-end offload budget in cycles; 0 disables timeouts. */
    Cycle packageTimeout = 0;
    /** Cube link retry-rate threshold (retries/packets) above which
     *  offloads to that cube degrade to the host path; 0 disables. */
    double retryRateThreshold = 0.0;
    /** Packets a cube must have carried before its retry rate is
     *  trusted enough to trip the breaker. */
    u64 minPackets = 256;

    static RobustnessParams fromConfig(const Config &cfg);

    bool
    enabled() const
    {
        return packageTimeout > 0 || retryRateThreshold > 0.0;
    }
};

class PimRobustness
{
  public:
    PimRobustness(const RobustnessParams &params, HmcMemory &hmc);

    const RobustnessParams &params() const { return params_; }

    /** Deadline for an offload starting at `now` (0 = no deadline). */
    Cycle
    deadline(Cycle now) const
    {
        return params_.packageTimeout ? now + params_.packageTimeout : 0;
    }

    /**
     * Circuit breaker: should a request routed to the cube owning
     * `route` skip the offload and run host-side?
     */
    bool
    shouldBypass(Addr route)
    {
        if (params_.retryRateThreshold <= 0.0)
            return false;
        if (hmc_.observedLinkRetryRate(route, params_.minPackets) <=
            params_.retryRateThreshold)
            return false;
        ++retry_rate_trips_;
        return true;
    }

    /** Did work complete after its deadline? Counts and traces the
     *  timeout. */
    bool
    timedOut(Cycle deadline, Cycle complete)
    {
        if (deadline == 0 || complete <= deadline)
            return false;
        ++timeouts_;
        TEXPIM_TRACE_INSTANT("fault", "package_timeout", 311, deadline);
        return true;
    }

    /** Record one request degraded to the host-side filtering path. */
    void countFallback(Cycle at);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    u64 fallbacks() const { return fallbacks_.value(); }

  private:
    RobustnessParams params_;
    HmcMemory &hmc_;
    StatGroup stats_;
    StatCounter &fallbacks_;
    StatCounter &timeouts_;
    StatCounter &retry_rate_trips_;
};

} // namespace texpim

#endif // TEXPIM_PIM_ROBUSTNESS_HH
