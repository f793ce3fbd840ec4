#include "common/fault.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/sim_context.hh"

namespace texpim {

FaultParams
FaultParams::fromConfig(const Config &cfg)
{
    FaultParams p;
    p.seed = u64(cfg.getInt("fault_seed", i64(p.seed)));
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

FaultInjector::FaultInjector(std::string site, double probability,
                             unsigned burstLen, u64 seed)
    : site_(std::move(site)), probability_(probability),
      burst_len_(std::max(1u, burstLen)),
      rng_(faultSiteSeed(seed, site_))
{
    TEXPIM_ASSERT(probability_ >= 0.0 && probability_ <= 1.0,
                  "fault probability ", probability_, " not in [0, 1]");
    if (enabled()) {
        registry_ = &SimContext::current().faults();
        registry_->add(this);
    }
}

FaultInjector::~FaultInjector()
{
    if (registry_ != nullptr)
        registry_->remove(this);
}

FaultInjector::FaultInjector(FaultInjector &&other) noexcept
    : site_(std::move(other.site_)), probability_(other.probability_),
      burst_len_(other.burst_len_), burst_left_(other.burst_left_),
      rng_(other.rng_), trials_(other.trials_), faults_(other.faults_),
      registry_(other.registry_)
{
    if (registry_ != nullptr) {
        registry_->remove(&other);
        registry_->add(this);
        other.registry_ = nullptr;
    }
    other.probability_ = 0.0;
}

FaultInjector &
FaultInjector::operator=(FaultInjector &&other) noexcept
{
    if (this == &other)
        return *this;
    if (registry_ != nullptr)
        registry_->remove(this);
    site_ = std::move(other.site_);
    probability_ = other.probability_;
    burst_len_ = other.burst_len_;
    burst_left_ = other.burst_left_;
    rng_ = other.rng_;
    trials_ = other.trials_;
    faults_ = other.faults_;
    registry_ = other.registry_;
    if (registry_ != nullptr) {
        registry_->remove(&other);
        registry_->add(this);
        other.registry_ = nullptr;
    }
    other.probability_ = 0.0;
    return *this;
}

FaultRegistry &
FaultRegistry::instance()
{
    return SimContext::current().faults();
}

void
FaultRegistry::add(FaultInjector *f)
{
    entries_.push_back(f);
}

void
FaultRegistry::remove(FaultInjector *f)
{
    entries_.erase(std::remove(entries_.begin(), entries_.end(), f),
                   entries_.end());
}

std::vector<const FaultInjector *>
FaultRegistry::sites() const
{
    std::vector<const FaultInjector *> out(entries_.begin(), entries_.end());
    // tie-break: site names are unique per registry (one injector per
    // physical fault site), so name order is already total.
    std::sort(out.begin(), out.end(),
              [](const FaultInjector *a, const FaultInjector *b) {
                  return a->site() < b->site();
              });
    return out;
}

u64
FaultRegistry::totalFaults() const
{
    u64 n = 0;
    for (const FaultInjector *f : entries_)
        n += f->faults();
    return n;
}

} // namespace texpim
