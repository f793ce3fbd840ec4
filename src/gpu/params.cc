#include "gpu/params.hh"

#include <limits>
#include <utility>

#include "common/logging.hh"

namespace texpim {

namespace {

/**
 * Keys the simulator no longer reads. Unknown keys only warn, so a
 * script still passing one would silently run a different
 * configuration; these fail instead, naming what replaced them.
 */
const std::pair<const char *, const char *> kRetiredKeys[] = {
    {"gpu.deterministic_schedule", "use gpu.schedule=rr instead"},
    {"gpu.sampler",
     "the quad sampler is the only phase-1 sampler; drop the key"},
};

/** Narrow a count that must be at least 1. The check runs on the
 *  signed value, so -1 cannot wrap to 4294967295. */
unsigned
atLeastOne(const char *key, i64 v)
{
    if (v < 1 || v > i64(std::numeric_limits<unsigned>::max()))
        TEXPIM_FATAL(key, " must be between 1 and ",
                     std::numeric_limits<unsigned>::max(), ", got ", v);
    return unsigned(v);
}

} // namespace

GpuParams
GpuParams::fromConfig(const Config &cfg)
{
    for (const std::string &key : cfg.keys())
        for (const auto &[retired, hint] : kRetiredKeys)
            if (key == retired)
                TEXPIM_FATAL("config key '", key, "' was removed: ", hint);

    GpuParams p;
    p.clusters = unsigned(cfg.getInt("gpu.clusters", p.clusters));
    p.shadersPerCluster =
        unsigned(cfg.getInt("gpu.shaders_per_cluster", p.shadersPerCluster));
    p.tileSize = unsigned(cfg.getInt("gpu.tile_size", p.tileSize));
    p.frequencyGHz = cfg.getDouble("gpu.frequency_ghz", p.frequencyGHz);
    p.texAddressAlus =
        unsigned(cfg.getInt("gpu.tex_address_alus", p.texAddressAlus));
    p.texFilterAlus =
        unsigned(cfg.getInt("gpu.tex_filter_alus", p.texFilterAlus));
    p.texUnitTexelsPerCycle = unsigned(
        cfg.getInt("gpu.tex_unit_texels_per_cycle", p.texUnitTexelsPerCycle));
    p.texL1.sizeBytes = u64(cfg.getInt("gpu.tex_l1_bytes",
                                       i64(p.texL1.sizeBytes)));
    p.texL1.ways = unsigned(cfg.getInt("gpu.tex_l1_ways", p.texL1.ways));
    p.texL2.sizeBytes = u64(cfg.getInt("gpu.tex_l2_bytes",
                                       i64(p.texL2.sizeBytes)));
    p.texL2.ways = unsigned(cfg.getInt("gpu.tex_l2_ways", p.texL2.ways));
    p.texL1HitLatency =
        Cycle(cfg.getInt("gpu.tex_l1_latency", i64(p.texL1HitLatency)));
    p.texL2HitLatency =
        Cycle(cfg.getInt("gpu.tex_l2_latency", i64(p.texL2HitLatency)));
    p.maxInflightTexRequests = unsigned(
        cfg.getInt("gpu.max_inflight_tex", p.maxInflightTexRequests));
    p.vertexShaderCycles =
        unsigned(cfg.getInt("gpu.vertex_cycles", p.vertexShaderCycles));
    p.fragmentShaderCycles =
        unsigned(cfg.getInt("gpu.fragment_cycles", p.fragmentShaderCycles));
    p.fragmentPipelineCycles = unsigned(cfg.getInt(
        "gpu.fragment_pipeline_cycles", p.fragmentPipelineCycles));
    p.triangleSetupCycles =
        unsigned(cfg.getInt("gpu.setup_cycles", p.triangleSetupCycles));
    p.renderThreads = atLeastOne(
        "gpu.render_threads",
        cfg.getInt("gpu.render_threads", p.renderThreads));
    std::string schedule = cfg.getString("gpu.schedule", "horizon");
    if (schedule != "horizon" && schedule != "rr")
        TEXPIM_FATAL("gpu.schedule must be \"horizon\" or \"rr\", got \"",
                     schedule, "\"");
    p.schedule =
        schedule == "rr" ? Schedule::RoundRobin : Schedule::Horizon;
    p.pipelineDepth = atLeastOne(
        "gpu.pipeline_depth",
        cfg.getInt("gpu.pipeline_depth", p.pipelineDepth));
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
        "resume", "runner.max_retries", "runner.retry_backoff_ms",
        "seed", "sim.inject_failure", "sim.job_timeout_ms", "stats_out",
        "strict_config", "sweep_journal", "trace_cap", "trace_out",
        "width",

        // A-TFIM approximation.
        "atfim.angle_threshold_rad",

        // Energy model.
        "energy.alu_op_j", "energy.atfim_logic_w", "energy.core_ghz",
        "energy.gddr5_activate_j", "energy.gddr5_background_w",
        "energy.gddr5_j_per_bit", "energy.gpu_background_w",
        "energy.hmc_background_w", "energy.hmc_dram_j_per_bit",
        "energy.hmc_link_j_per_bit", "energy.l1_access_j",
        "energy.l2_access_j", "energy.leakage_fraction",
        "energy.rop_cache_access_j", "energy.stfim_mtu_w",
        "energy.tex_alu_op_j",

        // Fault injection / robustness.
        "fault_burst_len", "fault_degrade_min_packets",
        "fault_degrade_retry_rate", "fault_link_ber",
        "fault_package_timeout", "fault_seed", "fault_vault_ber",

        // GDDR5 baseline memory.
        "gddr5.bandwidth_gbs", "gddr5.banks_per_channel",
        "gddr5.channels", "gddr5.command_latency",

        // Host GPU.
        "gpu.clusters", "gpu.fragment_cycles",
        "gpu.fragment_pipeline_cycles", "gpu.frequency_ghz",
        "gpu.max_inflight_tex", "gpu.pipeline_depth",
        "gpu.render_threads", "gpu.schedule", "gpu.setup_cycles",
        "gpu.shaders_per_cluster", "gpu.tex_address_alus",
        "gpu.tex_filter_alus", "gpu.tex_l1_bytes", "gpu.tex_l1_latency",
        "gpu.tex_l1_ways", "gpu.tex_l2_bytes", "gpu.tex_l2_latency",
        "gpu.tex_l2_ways", "gpu.tex_unit_texels_per_cycle",
        "gpu.tile_size", "gpu.vertex_cycles",

        // HMC stack.
        "hmc.banks_per_vault", "hmc.cubes",
        "hmc.external_bandwidth_gbs", "hmc.internal_bandwidth_gbs",
        "hmc.link_latency", "hmc.max_retries",
        "hmc.request_packet_bytes", "hmc.response_header_bytes",
        "hmc.retry_buffer_packets", "hmc.retry_latency",
        "hmc.switch_latency", "hmc.tsv_latency",
        "hmc.vault_command_latency", "hmc.vaults",

        // PIM package sizes.
        "pim.offload_factor", "pim.parent_base_addr_bytes",
        "pim.parent_offset_bytes", "pim.parent_value_bytes",
        "pim.read_request_bytes", "pim.response_header_bytes",
        "pim.tex_result_bytes",
    };
    // texpim-lint: config-key-table end
    return keys;
}

} // namespace texpim
