#include "pim/robustness.hh"

#include <limits>

#include "common/logging.hh"
#include "common/trace_events.hh"

namespace texpim {

RobustnessParams
RobustnessParams::fromConfig(const Config &cfg)
{
    RobustnessParams p;
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    p.packageTimeout = cfg.getUnsigned("fault_package_timeout",
                                       unsigned(p.packageTimeout), 0, kMax);
    p.retryRateThreshold =
        cfg.getDouble("fault_degrade_retry_rate", p.retryRateThreshold);
    p.minPackets = cfg.getUnsigned("fault_degrade_min_packets",
                                   unsigned(p.minPackets), 0, kMax);
    if (p.retryRateThreshold < 0.0 || p.retryRateThreshold > 1.0)
        TEXPIM_FATAL("fault_degrade_retry_rate = ", p.retryRateThreshold,
                     " not in [0, 1]");
    return p;
}

PimRobustness::PimRobustness(const RobustnessParams &params, HmcMemory &hmc)
    : params_(params), hmc_(hmc), stats_("pim"),
      fallbacks_(stats_.counter("fallbacks",
                                "requests degraded from PIM offload to "
                                "host-side filtering (B-PIM semantics)")),
      timeouts_(stats_.counter("timeouts",
                               "offloads abandoned because a package blew "
                               "its deadline")),
      retry_rate_trips_(stats_.counter("retry_rate_trips",
                                       "offloads bypassed by the link "
                                       "retry-rate circuit breaker"))
{
}

void
PimRobustness::countFallback(Cycle at)
{
    ++fallbacks_;
    TEXPIM_TRACE_INSTANT("fault", "pim_fallback", 312, at);
}

} // namespace texpim
