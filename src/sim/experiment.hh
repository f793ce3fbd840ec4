/**
 * @file
 * Experiment-runner helpers shared by the bench binaries: run a design
 * across the Table II workload suite, normalize against the baseline,
 * and print paper-style result tables.
 */

#ifndef TEXPIM_SIM_EXPERIMENT_HH
#define TEXPIM_SIM_EXPERIMENT_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace texpim {

/** One workload's result under one design. */
struct WorkloadResult
{
    Workload workload{};
    SimResult result{};
};

/** Options common to all experiments. */
struct SuiteOptions
{
    unsigned frame = 3; //!< camera-path frame to render
    u64 seed = 0x7e01d;
    /** Optional downscale divisor for quick runs (1 = paper size). */
    unsigned resolutionDivisor = 1;
    bool verbose = false;
    /** Worker threads for the suite grid (--jobs N; 0 = all hardware
     *  threads). Results are identical whatever this is — see
     *  sim/runner/experiment_runner.hh. */
    unsigned jobs = 1;
    /** Watchdog deadline per simulation in milliseconds (--timeout-ms;
     *  0 = no watchdog). A timed-out or otherwise failed suite spec is
     *  fatal — bench tables cannot carry holes. */
    u64 jobTimeoutMs = 0;
};

/** The workload list, optionally downscaled. */
std::vector<Workload> suiteWorkloads(const SuiteOptions &opt);

/**
 * Run design points over the whole suite through ONE worker pool: the
 * full (config x workload) grid is submitted up front, so a slow tail
 * workload of one design overlaps the next design's work. out[c][w] is
 * configs[c] on suiteWorkloads(opt)[w]; each spec runs in its own
 * SimContext, so it does not depend on which other configs share the
 * grid. A failed spec is fatal.
 */
std::vector<std::vector<WorkloadResult>>
runSuites(const std::vector<SimConfig> &configs, const SuiteOptions &opt);

/** Arithmetic mean. */
double mean(const std::vector<double> &v);

/** Geometric mean (for speedups). */
double geomean(const std::vector<double> &v);

/**
 * Print a paper-style table: one row per workload, one column per
 * series, plus a mean row.
 */
class ResultTable
{
  public:
    ResultTable(std::string title, std::vector<std::string> row_labels);

    void addColumn(const std::string &name, const std::vector<double> &vals);

    /** Print with `precision` decimals; appends an average row. */
    void print(std::ostream &os, int precision = 2,
               bool geometric_mean = false) const;

  private:
    std::string title_;
    std::vector<std::string> rows_;
    std::vector<std::string> col_names_;
    std::vector<std::vector<double>> cols_;
};

/**
 * Parse the bench flags: --quick (halve every workload's resolution;
 * the suite keeps all its workloads), --frame N, --seed S, --jobs N,
 * --timeout-ms T and --verbose. A malformed or out-of-range value, a
 * flag missing its value or an unknown flag is fatal.
 */
SuiteOptions parseSuiteArgs(int argc, char **argv);

} // namespace texpim

#endif // TEXPIM_SIM_EXPERIMENT_HH
