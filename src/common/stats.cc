#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/sim_context.hh"

namespace texpim {

StatHistogram::StatHistogram(double lo, double hi, unsigned buckets)
    : lo_(lo), hi_(hi)
{
    TEXPIM_ASSERT(buckets >= 1, "histogram needs at least one bucket");
    TEXPIM_ASSERT(hi > lo, "histogram range must be nonempty");
    counts_.assign(buckets, 0);
}

void
StatHistogram::sample(double v)
{
    if (samples_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++samples_;
    sum_ += v;

    double frac = (v - lo_) / (hi_ - lo_);
    auto idx = i64(frac * double(counts_.size()));
    idx = std::clamp<i64>(idx, 0, i64(counts_.size()) - 1);
    ++counts_[size_t(idx)];
}

double
StatHistogram::percentile(double p) const
{
    if (samples_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    double target = p * double(samples_);
    double width = (hi_ - lo_) / double(counts_.size());
    double cum = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        double c = double(counts_[i]);
        if (c > 0.0 && cum + c >= target) {
            double frac = (target - cum) / c;
            double v = lo_ + (double(i) + frac) * width;
            return std::clamp(v, min_, max_);
        }
        cum += c;
    }
    return max_;
}

void
StatHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
}

StatGroup::StatGroup(std::string name)
    : name_(std::move(name)), registry_(&SimContext::current().stats())
{
    registry_->add(this);
}

StatGroup::~StatGroup()
{
    registry_->remove(this);
}

void
StatGroup::claim(const std::string &name, StatDesc desc)
{
    bool fresh = descriptions_.emplace(name, desc.text()).second;
    TEXPIM_ASSERT(fresh, "stat '", name, "' registered twice in group '",
                  name_, "'");
}

StatCounter &
StatGroup::counter(const std::string &name, StatDesc desc)
{
    claim(name, desc);
    return counters_[name];
}

StatAverage &
StatGroup::average(const std::string &name, StatDesc desc)
{
    claim(name, desc);
    return averages_[name];
}

StatHistogram &
StatGroup::histogram(const std::string &name, double lo, double hi,
                     unsigned buckets, StatDesc desc)
{
    claim(name, desc);
    return histograms_.emplace(name, StatHistogram(lo, hi, buckets))
        .first->second;
}

const StatCounter &
StatGroup::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    TEXPIM_ASSERT(it != counters_.end(),
                  "no counter '", name, "' in group '", name_, "'");
    return it->second;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

const StatAverage &
StatGroup::findAverage(const std::string &name) const
{
    auto it = averages_.find(name);
    TEXPIM_ASSERT(it != averages_.end(),
                  "no average '", name, "' in group '", name_, "'");
    return it->second;
}

bool
StatGroup::hasAverage(const std::string &name) const
{
    return averages_.count(name) != 0;
}

const std::string &
StatGroup::description(const std::string &name) const
{
    static const std::string empty;
    auto it = descriptions_.find(name);
    return it != descriptions_.end() ? it->second : empty;
}

void
StatGroup::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : averages_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

} // namespace texpim
