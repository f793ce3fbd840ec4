#include "gpu/params.hh"

#include <limits>
#include <utility>

#include "common/logging.hh"

namespace texpim {

namespace {

/**
 * Keys the simulator no longer reads. The CLI already rejects unknown
 * keys; these fail with a message naming what replaced them.
 */
const std::pair<const char *, const char *> kRetiredKeys[] = {
    {"gpu.deterministic_schedule", "use gpu.schedule=rr instead"},
    {"gpu.sampler",
     "the quad sampler is the only phase-1 sampler; drop the key"},
    {"runner.max_retries",
     "a sweep runs each spec once (a rerun fails the same way); drop the "
     "key"},
    {"runner.retry_backoff_ms", "a sweep runs each spec once; drop the key"},
    {"strict_config", "unknown config keys are always fatal; drop the key"},
};

constexpr unsigned kMaxCount = std::numeric_limits<unsigned>::max();

} // namespace

GpuParams
GpuParams::fromConfig(const Config &cfg)
{
    for (const std::string &key : cfg.keys())
        for (const auto &[retired, hint] : kRetiredKeys)
            if (key == retired)
                TEXPIM_FATAL("config key '", key, "' was removed: ", hint);

    GpuParams p;
    p.renderThreads =
        cfg.getUnsigned("gpu.render_threads", p.renderThreads, 1, kMaxCount);
    std::string schedule = cfg.getString("gpu.schedule", "horizon");
    if (schedule != "horizon" && schedule != "rr")
        TEXPIM_FATAL("gpu.schedule must be \"horizon\" or \"rr\", got \"",
                     schedule, "\"");
    p.schedule =
        schedule == "rr" ? Schedule::RoundRobin : Schedule::Horizon;
    p.pipelineDepth =
        cfg.getUnsigned("gpu.pipeline_depth", p.pipelineDepth, 1, kMaxCount);
    return p;
}

/**
 * Every configuration key the simulator and the CLI accept — the
 * single authoritative list. texpim-lint rule C1 reconciles it three
 * ways: every key read in src/ must be listed here, every listed key
 * must still be read somewhere, and every listed key must appear in
 * the README configuration reference. Keep the sections sorted.
 */
const std::vector<std::string> &
knownConfigKeys()
{
    // texpim-lint: config-key-table begin
    static const std::vector<std::string> keys = {
        // Scene / workload (CLI).
        "compress", "design", "disable_aniso", "frame", "height",
        "jobs", "max_aniso", "metrics_out", "out", "prof",
        "prof.epoch_cycles", "prof.wall", "prof_out", "report_out",
        "resume", "seed", "sim.inject_failure", "sim.job_timeout_ms",
        "stats_out", "sweep_journal", "trace_cap", "trace_out", "width",

        // A-TFIM approximation.
        "atfim.angle_threshold_rad",

        // Fault injection / robustness.
        "fault_burst_len", "fault_degrade_min_packets",
        "fault_degrade_retry_rate", "fault_link_ber",
        "fault_package_timeout", "fault_seed", "fault_vault_ber",

        // Host GPU.
        "gpu.pipeline_depth", "gpu.render_threads", "gpu.schedule",
    };
    // texpim-lint: config-key-table end
    return keys;
}

} // namespace texpim
