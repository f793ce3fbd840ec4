/**
 * @file
 * Structured job-failure taxonomy for the resilient ExperimentRunner.
 *
 * Every spec in a grid runs under a catch-all boundary; whatever
 * escapes the simulation — a thrown exception, a contained panic()
 * (ScopedPanicHandler / SimPanic), a watchdog expiry (SimTimeout) — is
 * converted into a JobError carried in the spec's ExperimentResult, so
 * one bad spec never takes down the grid. Consumers (the texpim sweep
 * CLI, the sweep journal, tests) report the category/site/message as
 * structured fields ("texpim-sweep-v3" rows).
 */

#ifndef TEXPIM_SIM_RUNNER_JOB_ERROR_HH
#define TEXPIM_SIM_RUNNER_JOB_ERROR_HH

#include <cstddef>
#include <string>

namespace texpim {

/** What kind of failure escaped the job. */
enum class JobErrorCategory
{
    None,      //!< the job completed normally
    Exception, //!< a std::exception propagated out of the simulation
    Panic,     //!< a contained TEXPIM_PANIC / TEXPIM_ASSERT (SimPanic)
    Timeout,   //!< the watchdog deadline expired (SimTimeout)
    Unknown,   //!< something not derived from std::exception was thrown
};

/** Stable lowercase name used in journals and sweep metrics. */
const char *jobErrorCategoryName(JobErrorCategory c);

/** Inverse of jobErrorCategoryName(); Unknown for unrecognized names. */
JobErrorCategory jobErrorCategoryFromName(const std::string &name);

/** The final outcome of one spec, summarizing the error category. */
enum class JobStatus
{
    Ok,      //!< completed
    Failed,  //!< Exception/Panic/Unknown
    Timeout, //!< watchdog expiry
};

/** Stable lowercase name used in journals and sweep metrics. */
const char *jobStatusName(JobStatus s);

/** Inverse of jobStatusName(); fatal() on unrecognized names (the
 *  inputs are journal files this simulator itself wrote). */
JobStatus jobStatusFromName(const std::string &name);

/** One contained failure, attributed to the spec that raised it. */
struct JobError
{
    JobErrorCategory category = JobErrorCategory::None;

    /** Where the failure was raised or observed: "file:line" for
     *  panics, the cancellation poll point for timeouts, "" when the
     *  exception carried no location. */
    std::string site;

    std::string message;

    /** Index of the failing spec in the submitted grid. */
    size_t specIndex = 0;
};

} // namespace texpim

#endif // TEXPIM_SIM_RUNNER_JOB_ERROR_HH
