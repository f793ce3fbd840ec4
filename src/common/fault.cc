#include "common/fault.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace texpim {

FaultParams
FaultParams::fromConfig(const Config &cfg)
{
    FaultParams p;
    p.seed = cfg.getU64("fault_seed", p.seed);
    p.linkBer = cfg.getDouble("fault_link_ber", p.linkBer);
    p.vaultBer = cfg.getDouble("fault_vault_ber", p.vaultBer);
    p.burstLen = cfg.getUnsigned("fault_burst_len", p.burstLen, 1,
                                 std::numeric_limits<unsigned>::max());
    if (p.linkBer < 0.0 || p.linkBer > 1.0)
        TEXPIM_FATAL("fault_link_ber = ", p.linkBer, " not in [0, 1]");
    if (p.vaultBer < 0.0 || p.vaultBer > 1.0)
        TEXPIM_FATAL("fault_vault_ber = ", p.vaultBer, " not in [0, 1]");
    return p;
}

u64
faultSiteSeed(u64 seed, const std::string &site)
{
    u64 h = 0xcbf29ce484222325ull; // FNV-1a
    for (char c : site) {
        h ^= u64(u8(c));
        h *= 0x100000001b3ull;
    }
    return seed ^ h;
}

FaultInjector::FaultInjector(const std::string &site, double probability,
                             unsigned burstLen, u64 seed)
    : probability_(probability), burst_len_(std::max(1u, burstLen)),
      rng_(faultSiteSeed(seed, site))
{
    TEXPIM_ASSERT(probability_ >= 0.0 && probability_ <= 1.0,
                  "fault probability ", probability_, " not in [0, 1]");
}

} // namespace texpim
