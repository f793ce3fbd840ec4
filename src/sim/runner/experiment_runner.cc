#include "sim/runner/experiment_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/stat_export.hh"
#include "quality/image_metrics.hh"
#include "sim/runner/sweep_journal.hh"

namespace texpim {

std::string
ExperimentSpec::defaultLabel() const
{
    return std::string(designName(config.design)) + "/" + workload.label() +
           "/f" + std::to_string(frame);
}

ExperimentRunner::ExperimentRunner(RunnerOptions opt) : opt_(std::move(opt))
{}

unsigned
ExperimentRunner::effectiveJobs(size_t num_specs) const
{
    unsigned jobs = opt_.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    return unsigned(std::min<size_t>(jobs, std::max<size_t>(1, num_specs)));
}

namespace {

/** Trip the spec's injected failure (tests/CI; see InjectedFailure). */
void
fireInjectedFailure(const ExperimentSpec &spec, const std::string &label)
{
    switch (spec.inject) {
      case InjectedFailure::None:
        return;
      case InjectedFailure::Throw:
        throw std::runtime_error("injected failure: throw (spec '" + label +
                                 "')");
      case InjectedFailure::Panic:
        TEXPIM_PANIC("injected failure: panic (spec '", label, "')");
      case InjectedFailure::Hang:
        // Cooperative hang: spin on the watchdog poll the render loop
        // uses, so the Timeout path is exercised end to end. Refuses
        // to hang a run that armed no deadline (that would wedge the
        // worker forever) — the assert panics instead, which the job
        // boundary contains.
        TEXPIM_ASSERT(SimContext::current().deadline().armed(),
                      "inject=hang requires sim.job_timeout_ms > 0");
        for (;;) {
            SimContext::current().deadline().check("runner.inject_hang");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
}

} // namespace

/**
 * The texture stores of one run() call, keyed by (game, seed): the
 * only inputs of a level's textures. The first spec to ask for a key
 * inserts the key's latch, a shared future, builds its own scene and
 * publishes the scene's store; every later spec of the key waits on
 * the latch and adopts the store through buildGameScene's checked
 * adopting path. A failed build publishes its exception instead, so
 * each spec of the key rethrows it inside its own containment
 * boundary. Stores live until the cache does.
 */
class ExperimentRunner::StoreCache
{
    using Store = std::shared_ptr<TextureStore>;

  public:
    /** `spec`'s scene, its textures shared with the key's other specs. */
    Scene
    build(const ExperimentSpec &spec)
    {
        std::promise<Store> claim;
        std::shared_future<Store> latch;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, first] = stores_.try_emplace(
                {spec.workload.game, spec.seed});
            if (first)
                it->second = claim.get_future().share();
            else
                latch = it->second;
        }
        if (latch.valid())
            return buildGameScene(spec.workload, spec.frame, spec.seed,
                                  latch.get());
        try {
            Scene scene = buildGameScene(spec.workload, spec.frame, spec.seed);
            claim.set_value(scene.textures);
            return scene;
        } catch (...) {
            claim.set_exception(std::current_exception());
            throw;
        }
    }

  private:
    std::mutex mutex_;
    std::map<std::pair<Game, u64>, std::shared_future<Store>> stores_;
};

ExperimentResult
ExperimentRunner::runOne(const ExperimentSpec &spec)
{
    StoreCache cache;
    return runOne(spec, cache);
}

ExperimentResult
ExperimentRunner::runOne(const ExperimentSpec &spec, StoreCache &cache)
{
    ExperimentResult out;
    out.name = spec.name.empty() ? spec.defaultLabel() : spec.name;

    fireInjectedFailure(spec, out.name);

    Scene scene = cache.build(spec);
    scene.settings.maxAniso = spec.maxAniso != 0
                                  ? spec.maxAniso
                                  : defaultMaxAniso(spec.workload.width);

    RenderingSimulator sim(spec.config);
    out.result = sim.renderScene(scene);
    out.imageFnv1a = imageHash(*out.result.image);
    out.stats = SimContext::current().stats().snapshot();
    return out;
}

ExperimentResult
ExperimentRunner::runContained(const ExperimentSpec &spec, size_t index,
                               StoreCache &cache) const
{
    Deadline &deadline = SimContext::current().deadline();
    if (opt_.jobTimeoutMs > 0)
        deadline.arm(opt_.jobTimeoutMs);

    JobError err;
    try {
        // The handler must live inside the spec's SimContext scope (the
        // caller's), so a panic unwinds the RenderingSimulator —
        // unregistering its stat groups — before the context is torn
        // down.
        ScopedPanicHandler contain;
        ExperimentResult out = runOne(spec, cache);
        deadline.disarm();
        return out;
    } catch (const SimTimeout &e) {
        err.category = JobErrorCategory::Timeout;
        err.site = e.site();
        err.message = e.what();
    } catch (const SimPanic &e) {
        err.category = JobErrorCategory::Panic;
        err.site = e.site();
        err.message = e.message();
    } catch (const std::exception &e) {
        err.category = JobErrorCategory::Exception;
        err.message = e.what();
    } catch (...) {
        err.category = JobErrorCategory::Unknown;
        err.message = "non-std::exception thrown";
    }
    deadline.disarm();
    err.specIndex = index;

    ExperimentResult out;
    out.name = spec.name.empty() ? spec.defaultLabel() : spec.name;
    out.status = err.category == JobErrorCategory::Timeout
                     ? JobStatus::Timeout
                     : JobStatus::Failed;
    out.error = std::move(err);
    return out;
}

std::vector<ExperimentResult>
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs)
{
    std::vector<ExperimentResult> results(specs.size());
    if (specs.empty())
        return results;

    // Self-scheduling queue: workers claim the next unstarted spec.
    // Which worker runs which spec varies; nothing about a result
    // does, because every spec runs in its own SimContext and
    // writes only results[i], and a scene adopting a shared texture
    // store is bitwise the scene a fresh build gives.
    StoreCache cache;
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;

            if (opt_.resumed != nullptr) {
                auto it = opt_.resumed->find(i);
                if (it != opt_.resumed->end()) {
                    // Restored from the journal: reproduce the stored
                    // result verbatim (it is bit-exact; see
                    // sweep_journal.hh) and do not re-append it.
                    results[i] = it->second;
                    if (opt_.verbose) {
                        TEXPIM_INFORM("job ", i + 1, "/", specs.size(),
                                      " ", results[i].name,
                                      ": resumed from journal");
                    }
                    continue;
                }
            }

            {
                // Fresh context per spec: a failed spec leaves no
                // stats or trace events behind.
                SimContext ctx;
                SimContext::Scope scope(ctx);
                std::string trace_file;
                if (!opt_.tracePath.empty()) {
                    trace_file = opt_.tracePath + ".job" + std::to_string(i);
                    ctx.trace().enable(trace_file, opt_.traceCap);
                }
                results[i] = runContained(specs[i], i, cache);
                if (!trace_file.empty()) {
                    ctx.trace().disable(); // writes the file
                    results[i].traceFile = trace_file;
                }
            }

            if (opt_.journal != nullptr)
                opt_.journal->append(results[i], i);
            if (opt_.verbose) {
                if (results[i].ok()) {
                    TEXPIM_INFORM("job ", i + 1, "/", specs.size(), " ",
                                  results[i].name, ": ",
                                  results[i].result.frame.frameCycles,
                                  " cycles");
                } else {
                    TEXPIM_INFORM("job ", i + 1, "/", specs.size(), " ",
                                  results[i].name, ": ",
                                  jobStatusName(results[i].status), " (",
                                  jobErrorCategoryName(
                                      results[i].error.category),
                                  ": ", results[i].error.message, ")");
                }
            }
        }
    };

    // The calling thread is worker 0, so jobs=1 starts no thread.
    unsigned jobs = effectiveJobs(specs.size());
    std::vector<std::thread> workers;
    workers.reserve(jobs - 1);
    for (unsigned t = 1; t < jobs; ++t)
        workers.emplace_back(work);
    work();
    for (std::thread &t : workers)
        t.join();
    return results;
}

u64
injectedFaults(const StatRegistry::Snapshot &stats)
{
    u64 n = 0;
    for (const char *key : {"hmc.crc_errors", "hmc.vault_retries"}) {
        auto it = stats.find(key);
        if (it != stats.end())
            n += u64(it->second);
    }
    return n;
}

StatRegistry::Snapshot
mergedStats(const std::vector<ExperimentResult> &results)
{
    std::vector<StatRegistry::Snapshot> parts;
    parts.reserve(results.size());
    for (const ExperimentResult &r : results)
        parts.push_back(r.stats);
    return mergeSnapshots(parts);
}

} // namespace texpim
