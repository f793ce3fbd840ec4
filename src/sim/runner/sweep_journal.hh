/**
 * @file
 * Checkpoint/resume journal for sweep grids ("texpim-sweep-journal-v1").
 *
 * A journal is a JSONL file: one header line followed by one line per
 * completed spec, appended (and flushed) the moment the spec finishes.
 * Killing a sweep loses at most the in-flight specs; `texpim sweep
 * resume=<journal>` reloads the completed rows, skips those specs and
 * merges the stored results with the freshly-run remainder into
 * byte-identical final outputs (metrics JSON, merged stats) at any
 * jobs= — the journal therefore stores every numeric field bit-exactly.
 *
 * File format:
 *
 *   {"schema":"texpim-sweep-journal-v1","specs":20}
 *   {"index":3,"name":"B-PIM/doom3 640x480/f3","status":"ok",
 *    "error":null,"image_fnv1a":"<16 hex>",
 *    "frame_cycles":"<16 hex>", ...,
 *    "energy_bits":{"shader":"<16 hex>", ...},
 *    "stats_bits":{"<stat key>":"<16 hex>", ...},"trace_file":""}
 *
 * Rows written by older builds also carry "attempts" and
 * "total_faults"; load() ignores both (the fault counts are in
 * stats_bits as `hmc.crc_errors` and `hmc.vault_retries`).
 *
 * Encoding: every u64 is its 16-digit zero-padded hex value; every
 * double is the 16-digit hex of its IEEE-754 bit pattern. The generic
 * JSON number path (double-valued, see json::Value) would round u64s
 * above 2^53 and is avoided entirely — restore is exact by
 * construction, not by printf round-trip.
 *
 * Restored results carry only the journaled subset of SimResult (the
 * fields sweep outputs consume: cycles, traffic, energy, recalcs,
 * image hash, stats snapshot); the rendered image itself is not
 * persisted. Failed/timeout rows are restored verbatim too — a resume
 * reports them again rather than re-running them (delete the journal
 * or drop the rows to retry them).
 *
 * Crash tolerance: appends are written and flushed under a mutex one
 * complete line at a time, so the only malformed state a kill can
 * leave is a torn final line, which load() detects and ignores with a
 * warning. Any other malformation is fatal (the file is wrong, not
 * merely truncated).
 */

#ifndef TEXPIM_SIM_RUNNER_SWEEP_JOURNAL_HH
#define TEXPIM_SIM_RUNNER_SWEEP_JOURNAL_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runner/experiment_runner.hh"

namespace texpim {

class SweepJournal
{
  public:
    /**
     * Open a journal for appending. `fresh` truncates the file and
     * writes the header line (a new sweep); otherwise rows are
     * appended to the existing file (a resume continuing the same
     * journal). fatal() if the file cannot be written.
     */
    SweepJournal(std::string path, size_t num_specs, bool fresh);

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Append one completed spec as a single flushed JSONL row.
     *  Thread-safe (the runner's workers call this concurrently). */
    void append(const ExperimentResult &r, size_t index);

    const std::string &path() const { return path_; }

    /**
     * Parse an existing journal and restore its completed rows,
     * validating the header spec count and every row's index/name
     * against the resolved labels of the sweep being resumed —
     * resuming against a different grid is fatal, not silent
     * corruption. A torn final line (the run was killed mid-append)
     * is dropped with a warning.
     */
    static std::map<size_t, ExperimentResult>
    load(const std::string &path, const std::vector<std::string> &spec_names);

  private:
    std::string path_;
    std::mutex mu_;
};

} // namespace texpim

#endif // TEXPIM_SIM_RUNNER_SWEEP_JOURNAL_HH
