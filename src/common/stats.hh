/**
 * @file
 * Lightweight statistics package: named scalar counters, running
 * averages and fixed-bucket histograms grouped under a StatGroup.
 *
 * Components own a StatGroup and register their statistics once at
 * construction, each with a description (a StatDesc, so `texpim stats`
 * and the JSON export are self-documenting by construction); the group
 * can be reset per frame. Every StatGroup
 * auto-registers with the global StatRegistry (stat_registry.hh) for
 * hierarchical enumeration and structured export (stat_export.hh). The
 * design deliberately mirrors the feel of gem5's stats package at a
 * fraction of the complexity.
 */

#ifndef TEXPIM_COMMON_STATS_HH
#define TEXPIM_COMMON_STATS_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace texpim {

/**
 * A stat's description: a non-empty string literal. Only a char array
 * converts, and its extent is checked at compile time, so "" or a
 * run-time `const char *`/std::string does not compile.
 */
class StatDesc
{
  public:
    template <size_t N>
    constexpr StatDesc(const char (&text)[N]) : text_(text)
    {
        static_assert(N > 1, "a stat description must not be empty");
    }

    const char *text() const { return text_; }

  private:
    const char *text_;
};

/** A named monotonically increasing (resettable) counter. */
class StatCounter
{
  public:
    StatCounter() = default;

    StatCounter &operator+=(u64 v) { value_ += v; return *this; }
    StatCounter &operator++() { ++value_; return *this; }

    u64 value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    u64 value_ = 0;
};

/** A named running average (sum / count). */
class StatAverage
{
  public:
    void sample(double v) { sum_ += v; ++count_; }

    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    u64 count() const { return count_; }
    double sum() const { return sum_; }
    void reset() { sum_ = 0.0; count_ = 0; }

  private:
    double sum_ = 0.0;
    u64 count_ = 0;
};

/** A histogram with uniform buckets over [lo, hi); out-of-range samples
 *  land in saturating end buckets. */
class StatHistogram
{
  public:
    StatHistogram() : StatHistogram(0.0, 1.0, 1) {}

    /**
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket
     * @param buckets number of uniform buckets (>= 1)
     */
    StatHistogram(double lo, double hi, unsigned buckets);

    void sample(double v);

    u64 bucketCount(unsigned i) const { return counts_.at(i); }
    unsigned buckets() const { return unsigned(counts_.size()); }
    u64 samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / double(samples_) : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /**
     * Estimate the p-quantile (p in [0, 1]) by linear interpolation
     * within the bucket that holds the target sample. The estimate is
     * clamped to the observed [min(), max()] so the saturating end
     * buckets cannot push it outside the sampled range. Returns 0 when
     * the histogram is empty.
     */
    double percentile(double p) const;

    void reset();

  private:
    double lo_;
    double hi_;
    std::vector<u64> counts_;
    u64 samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A registry of named statistics belonging to one component.
 *
 * Registration returns a reference that stays valid for the lifetime of
 * the group (node-based storage) and across resetAll(). Components
 * register each stat once, at construction, with its description, and
 * hold the returned reference: registering a name the group already
 * has is a panic. Reading by name goes through find*()/has*(), which
 * belong in exporters and tests, never on the timing replay (lint rule
 * R1).
 *
 * Construction registers the group with the StatRegistry of the
 * SimContext current on the constructing thread; destruction
 * unregisters it from that same registry, so a group stays correctly
 * enrolled even if the current context changes during its lifetime.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    StatCounter &counter(const std::string &name, StatDesc desc);
    StatAverage &average(const std::string &name, StatDesc desc);
    StatHistogram &histogram(const std::string &name, double lo, double hi,
                             unsigned buckets, StatDesc desc);

    /** Look up an existing counter; panics if absent. */
    const StatCounter &findCounter(const std::string &name) const;
    bool hasCounter(const std::string &name) const;

    /** Look up an existing average; panics if absent. */
    const StatAverage &findAverage(const std::string &name) const;
    bool hasAverage(const std::string &name) const;

    /** Description registered with a stat ("" for an unknown name). */
    const std::string &description(const std::string &name) const;

    /** Enumeration for the registry / exporters (sorted by name). */
    const std::map<std::string, StatCounter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, StatAverage> &averages() const
    {
        return averages_;
    }
    const std::map<std::string, StatHistogram> &histograms() const
    {
        return histograms_;
    }

    const std::string &name() const { return name_; }

    /** Reset every statistic in the group to zero. */
    void resetAll();

  private:
    /** Record `name`'s description; panics if the name is taken. */
    void claim(const std::string &name, StatDesc desc);

    std::string name_;
    class StatRegistry *registry_; //!< owner, captured at construction
    std::map<std::string, StatCounter> counters_;
    std::map<std::string, StatAverage> averages_;
    std::map<std::string, StatHistogram> histograms_;
    std::map<std::string, std::string> descriptions_;
};

} // namespace texpim

#endif // TEXPIM_COMMON_STATS_HH
