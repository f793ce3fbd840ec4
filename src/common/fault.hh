/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultInjector models one physical fault site (a link direction, a
 * vault's ECC path, ...) as a Bernoulli process with an optional burst
 * extension: once a fault fires, the next `burstLen - 1` trials at the
 * same site also fault, modeling correlated error events (a noisy lane
 * stays noisy for a few packets). Each site draws from its own
 * xorshift64* stream seeded from (global fault seed, site name), so
 *
 *  - the fault pattern at a site depends only on the number of trials
 *    performed there, never on what other sites do, and
 *  - two runs with the same seed and workload see bit-identical fault
 *    patterns, timings and statistics.
 *
 * Zero-overhead-when-disabled contract: a disabled injector's fire()
 * is a single flag check that performs no RNG draw, so a faults-off
 * simulation is bit-identical to a build without the fault path.
 *
 * An injector keeps no count of its own: the component that calls
 * fire() counts each fault in its stat group (the HMC's
 * `hmc.crc_errors` and `hmc.vault_retries`).
 */

#ifndef TEXPIM_COMMON_FAULT_HH
#define TEXPIM_COMMON_FAULT_HH

#include <string>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace texpim {

/** The fault_*= configuration surface (see README "Fault injection"). */
struct FaultParams
{
    u64 seed = 0x5eed;      //!< fault_seed=
    double linkBer = 0.0;   //!< fault_link_ber=, per-packet CRC error prob.
    double vaultBer = 0.0;  //!< fault_vault_ber=, per-access transient prob.
    unsigned burstLen = 1;  //!< fault_burst_len=, correlated-error run length

    static FaultParams fromConfig(const Config &cfg);

    bool enabled() const { return linkBer > 0.0 || vaultBer > 0.0; }
};

/** Mix the global fault seed with a site name so each site gets an
 *  independent deterministic stream (FNV-1a over the name). */
u64 faultSiteSeed(u64 seed, const std::string &site);

class FaultInjector
{
  public:
    /** Disabled (the default for components built without fault
     *  configuration). */
    FaultInjector() = default;

    /** The site named `site` firing with `probability` per trial;
     *  faults extend into bursts of `burstLen` consecutive trials. The
     *  name only seeds the site's stream (faultSiteSeed()). */
    FaultInjector(const std::string &site, double probability,
                  unsigned burstLen, u64 seed);

    /**
     * One trial: does a fault occur here, now?
     * Disabled sites return false after a single flag check.
     */
    bool
    fire()
    {
        if (probability_ <= 0.0)
            return false;
        if (burst_left_ > 0) {
            --burst_left_;
            return true;
        }
        if (!rng_.chance(probability_))
            return false;
        burst_left_ = burst_len_ - 1;
        return true;
    }

    bool enabled() const { return probability_ > 0.0; }

  private:
    double probability_ = 0.0;
    unsigned burst_len_ = 1;
    unsigned burst_left_ = 0;
    Rng rng_{};
};

} // namespace texpim

#endif // TEXPIM_COMMON_FAULT_HH
