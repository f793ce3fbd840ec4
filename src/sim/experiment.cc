#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/runner/experiment_runner.hh"

namespace texpim {

std::vector<Workload>
suiteWorkloads(const SuiteOptions &opt)
{
    std::vector<Workload> out = paperWorkloads();
    if (opt.resolutionDivisor > 1) {
        for (auto &w : out) {
            w.width = std::max(64u, w.width / opt.resolutionDivisor);
            w.height = std::max(48u, w.height / opt.resolutionDivisor);
        }
    }
    return out;
}

namespace {

ExperimentSpec
suiteSpec(const SimConfig &cfg, const Workload &wl, const SuiteOptions &opt)
{
    ExperimentSpec spec;
    spec.config = cfg;
    spec.workload = wl;
    spec.frame = opt.frame;
    spec.seed = opt.seed;
    // Keep the paper's resolution-dependent anisotropy level even for
    // downscaled quick runs.
    spec.maxAniso = defaultMaxAniso(wl.width * opt.resolutionDivisor);
    return spec;
}

} // namespace

std::vector<std::vector<WorkloadResult>>
runSuites(const std::vector<SimConfig> &configs, const SuiteOptions &opt)
{
    std::vector<Workload> workloads = suiteWorkloads(opt);

    std::vector<ExperimentSpec> specs;
    specs.reserve(configs.size() * workloads.size());
    for (const SimConfig &cfg : configs)
        for (const Workload &wl : workloads)
            specs.push_back(suiteSpec(cfg, wl, opt));

    RunnerOptions ropt;
    ropt.jobs = opt.jobs;
    ropt.verbose = opt.verbose;
    ropt.jobTimeoutMs = opt.jobTimeoutMs;
    std::vector<ExperimentResult> results =
        ExperimentRunner(ropt).run(specs);

    // Bench tables normalize everything against these numbers; a
    // contained failure would silently become a row of zeros, so for
    // the suite API failure is fatal (the sweep CLI, which can report
    // per-spec status, degrades gracefully instead).
    for (const ExperimentResult &r : results) {
        if (!r.ok())
            TEXPIM_FATAL("suite spec '", r.name, "' ",
                         jobStatusName(r.status), " (",
                         jobErrorCategoryName(r.error.category),
                         r.error.site.empty() ? "" : " at ", r.error.site,
                         "): ", r.error.message);
    }

    std::vector<std::vector<WorkloadResult>> out(configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        out[c].reserve(workloads.size());
        for (size_t w = 0; w < workloads.size(); ++w) {
            WorkloadResult r;
            r.workload = workloads[w];
            r.result = std::move(results[c * workloads.size() + w].result);
            out[c].push_back(std::move(r));
        }
    }
    return out;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v) {
        TEXPIM_ASSERT(x > 0.0, "geomean needs positive values");
        s += std::log(x);
    }
    return std::exp(s / double(v.size()));
}

ResultTable::ResultTable(std::string title,
                         std::vector<std::string> row_labels)
    : title_(std::move(title)), rows_(std::move(row_labels))
{}

void
ResultTable::addColumn(const std::string &name,
                       const std::vector<double> &vals)
{
    TEXPIM_ASSERT(vals.size() == rows_.size(),
                  "column '", name, "' has ", vals.size(), " values for ",
                  rows_.size(), " rows");
    col_names_.push_back(name);
    cols_.push_back(vals);
}

void
ResultTable::print(std::ostream &os, int precision,
                   bool geometric_mean) const
{
    os << "== " << title_ << " ==\n";

    size_t label_w = 10;
    for (const auto &r : rows_)
        label_w = std::max(label_w, r.size());

    os << std::left << std::setw(int(label_w) + 2) << "workload";
    for (const auto &c : col_names_)
        os << std::right << std::setw(std::max<int>(12, int(c.size()) + 2))
           << c;
    os << "\n";

    os << std::fixed << std::setprecision(precision);
    for (size_t r = 0; r < rows_.size(); ++r) {
        os << std::left << std::setw(int(label_w) + 2) << rows_[r];
        for (size_t c = 0; c < cols_.size(); ++c)
            os << std::right
               << std::setw(std::max<int>(12, int(col_names_[c].size()) + 2))
               << cols_[c][r];
        os << "\n";
    }

    os << std::left << std::setw(int(label_w) + 2)
       << (geometric_mean ? "geomean" : "average");
    for (size_t c = 0; c < cols_.size(); ++c) {
        double m = geometric_mean ? geomean(cols_[c]) : mean(cols_[c]);
        os << std::right
           << std::setw(std::max<int>(12, int(col_names_[c].size()) + 2))
           << m;
    }
    os << "\n\n";
}

namespace {

constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();

} // namespace

SuiteOptions
parseSuiteArgs(int argc, char **argv)
{
    SuiteOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                TEXPIM_FATAL(flag, " needs a value");
            return argv[++i];
        };
        if (flag == "--quick") {
            opt.resolutionDivisor = 2;
        } else if (flag == "--verbose") {
            opt.verbose = true;
        } else if (flag == "--frame") {
            opt.frame = Config::parseUnsigned(flag, value(), 0, kMaxUnsigned);
        } else if (flag == "--seed") {
            opt.seed = Config::parseU64(flag, value());
        } else if (flag == "--jobs") {
            opt.jobs = Config::parseUnsigned(flag, value(), 0, kMaxUnsigned);
        } else if (flag == "--timeout-ms") {
            opt.jobTimeoutMs =
                Config::parseUnsigned(flag, value(), 0, kMaxUnsigned);
        } else {
            TEXPIM_FATAL("unknown argument '", flag,
                         "' (try --quick, --frame N, --seed S, --jobs N, "
                         "--timeout-ms T, --verbose)");
        }
    }
    return opt;
}

} // namespace texpim
