/**
 * @file
 * Shared helpers for the suite bench binaries: run design points over
 * the Table II workload suite, compute normalized series, and print
 * paper-style tables with the paper's reference numbers quoted
 * alongside.
 */

#ifndef TEXPIM_BENCH_COMMON_HH
#define TEXPIM_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace texpim::bench {

/** Workload labels for table rows. */
inline std::vector<std::string>
workloadLabels(const SuiteOptions &opt)
{
    std::vector<std::string> out;
    for (const Workload &w : suiteWorkloads(opt))
        out.push_back(w.label());
    return out;
}

/** Extract a per-workload metric. */
inline std::vector<double>
metricOf(const std::vector<WorkloadResult> &rs,
         const std::function<double(const SimResult &)> &fn)
{
    std::vector<double> out;
    out.reserve(rs.size());
    for (const auto &r : rs)
        out.push_back(fn(r.result));
    return out;
}

/** Element-wise a[i] / b[i]. */
inline std::vector<double>
ratio(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = b[i] != 0.0 ? a[i] / b[i] : 0.0;
    return out;
}

/** One design point's results over the suite, and a grid of them. */
using Suite = std::vector<WorkloadResult>;
using Grid = std::vector<Suite>;
using Metric = double (*)(const SimResult &);

inline double
frameCycles(const SimResult &r)
{
    return double(r.frame.frameCycles);
}

inline double
texTraffic(const SimResult &r)
{
    return double(r.textureTrafficBytes);
}

/** a's metric over b's, per workload. */
inline std::vector<double>
over(const Suite &a, const Suite &b, Metric m)
{
    return ratio(metricOf(a, m), metricOf(b, m));
}

inline void
printHeader(const char *experiment, const char *paper_result)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paper_result);
    std::printf("==============================================================\n\n");
}

} // namespace texpim::bench

#endif // TEXPIM_BENCH_COMMON_HH
