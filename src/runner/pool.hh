/**
 * @file
 * Worker-pool execution of independent jobs, with or without the
 * result cache.
 *
 * The pool has exactly one executor, execute(), over type-erased
 * PoolJobs. A job names its cache identity and its obs options, and
 * hands the executor three closures over a result slot the caller
 * owns: compute (fill the slot), encode (slot -> payload bytes, called
 * only when storing) and decode (payload -> slot, called only on a
 * probe hit; false marks the entry unusable and the job recomputes).
 * Everything that is the same for every caller lives in execute():
 * cooperative cancel, the per-job obs::Collector scope, host phase
 * timers, cache probe/decode/hit/miss/store accounting with per-job
 * attribution, never storing a failure, error capture, and
 * expansion-order streaming.
 *
 * Callers differ only in their codec:
 *  - run(jobs, fn): the canonsim scenario adapter (CaseResult codec;
 *    a stored entry only counts when it decodes to a non-empty
 *    result, see decodeScenarioCases);
 *  - engine::Engine::runPayloadBatch: opaque payload strings
 *    (identity codec);
 *  - bench::FigureBench::run: a figure table's emitted rows.
 *
 * A warm-cache rerun therefore executes zero jobs, and an
 * interrupted sweep resumes from its cache directory, on every path.
 * Hit/miss/store counts accumulate in the store's atomic counters.
 *
 * Thread-safety and ordering contract:
 *  - A job's closures are called from one worker thread, up to
 *    workers() jobs at a time; they must not touch shared mutable
 *    state without their own synchronization.
 *  - compute() may call parallelFor (common/fork_join.hh): its
 *    indices run on idle workers of the same pass, each index
 *    writing its own slot. An observed job's indices record into
 *    child collectors that merge in index order after the join, so
 *    its obs artifacts match a serial run.
 *  - Each outcome lands in its job's slot, which makes the output
 *    ordering -- and therefore any rendered table or CSV --
 *    deterministic and independent of thread count and scheduling.
 *  - The pool itself is stateless across calls; a const ScenarioPool
 *    may be shared freely.
 */

#ifndef CANON_RUNNER_POOL_HH
#define CANON_RUNNER_POOL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "common/fork_join.hh"
#include "obs/collector.hh"
#include "runner/cancel.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace canon
{
namespace runner
{

/** Error recorded when a scenario yields no profile at all. */
inline constexpr const char *kNoArchError =
    "no requested architecture can execute this scenario";

/** How the executor finished one job. */
struct JobOutcome
{
    std::string error; //!< nonempty when the job failed

    /**
     * How the result cache treated this job: satisfied from the
     * store (cacheHit), or computed and written back (cacheStored).
     * Both false for uncached runs, failures, and cancelled jobs.
     * Per-job attribution is what lets a ResultSet report its own
     * hit/miss/store delta even when many requests share one
     * engine's store counters (see ResultSet::cacheStatsLine).
     */
    bool cacheHit = false;
    bool cacheStored = false;

    /** True when the job was skipped by a cancelled run. */
    bool cancelled() const { return error == kCancelledError; }

    /**
     * Observations gathered while this job executed; null when the
     * job's obs options were all off. Cache-hit jobs carry their
     * cache events but no fabric runs (nothing simulated).
     */
    std::shared_ptr<const obs::ScenarioObs> obs;
};

/** Outcome of one sweep job: per-arch profiles, or an error. */
struct ScenarioResult : JobOutcome
{
    SweepJob job;
    CaseResult cases;
};

/**
 * One job of the cached executor. The closures refer to a result
 * slot the caller owns; @c outcome is the slot's JobOutcome.
 */
struct PoolJob
{
    /**
     * The job's cache identity, called on the worker thread (key
     * hashing is a visible share of a warm sweep) and only when a
     * store is in use.
     */
    std::function<cache::ScenarioKey()> key;

    /** What to observe; null (or all off) runs unobserved. */
    const obs::ObsOptions *obs = nullptr;

    /** Fill the slot; throw to fail the job. */
    std::function<void()> compute;

    /** The slot as payload bytes; called only to store. */
    std::function<std::string()> encode;

    /**
     * Fill the slot from a probed payload; called only on a probe
     * hit. False marks the entry unusable (external corruption) and
     * the job recomputes, counted as a miss.
     */
    std::function<bool(const std::string &)> decode;

    JobOutcome *outcome = nullptr;
};

/**
 * The scenario codec's hit predicate: @p payload decodes to a
 * non-empty CaseResult. On false, @p cases is left empty. The
 * typed run() and engine::Engine::plan() share it, so a forecast
 * matches what a run will do.
 */
bool decodeScenarioCases(const std::string &payload, CaseResult &cases);

class ScenarioPool
{
  public:
    /** @p workers is clamped to [1, jobs] at run time. */
    explicit ScenarioPool(int workers) : workers_(workers) {}

    int workers() const { return workers_; }

    /**
     * The cached executor: run every job, writing how it finished to
     * its outcome. A job that throws is captured as a failed outcome
     * (the message, or "unknown exception"); the remaining jobs still
     * run.
     *
     * With a non-null @p store, the job's key is probed first (per
     * the store's mode): a payload that decode() accepts finishes the
     * job as a hit without computing; anything else computes and --
     * when writes are enabled and the job succeeded -- is encoded and
     * stored. Failures are never stored.
     *
     * With a non-null @p onDone, every finished job is additionally
     * streamed in job-index order: the callback fires for job i as
     * soon as jobs 0..i have all finished (so delivery order is
     * deterministic even though execution is not). Calls are
     * serialized under an internal lock but run on worker threads
     * concurrently with later jobs -- the callback must not block for
     * long and must not re-enter the pool. If the callback throws,
     * delivery stops, every job still runs to completion, and the
     * first exception rethrows on the caller's thread after the
     * workers have joined (it never escapes a worker thread).
     *
     * With a non-null @p cancel, the token is polled before each job
     * starts: once cancelled, every not-yet-started job is skipped
     * and its outcome carries kCancelledError (in-flight jobs finish
     * normally; skipped jobs never touch the store). Delivery order
     * is unchanged.
     */
    void execute(const std::vector<PoolJob> &jobs,
                 const cache::ResultStore *store,
                 const std::function<void(std::size_t)> &onDone = {},
                 const CancelToken *cancel = nullptr) const;

    /**
     * execute() over scenario jobs: each job's result is @p fn
     * (typically engine::runScenarioCases) of its options, cached
     * under cache::scenarioKey. A scenario whose result is empty
     * fails with kNoArchError. Results come back in job-index order;
     * @p onResult streams them in that order (the onDone contract).
     */
    std::vector<ScenarioResult>
    run(const std::vector<SweepJob> &jobs,
        const std::function<CaseResult(const cli::Options &)> &fn,
        const cache::ResultStore *store = nullptr,
        const std::function<void(const ScenarioResult &)> &onResult =
            {},
        const CancelToken *cancel = nullptr) const;

  private:
    /**
     * Run @p task for every index in [0, count): a work-stealing pass
     * over min(workers, count) threads (inline when that is one). A
     * task that calls parallelFor (common/fork_join.hh) offers its
     * indices to the pass; the first such fork starts the remaining
     * helpers, up to workers. @p task must not throw.
     */
    void forEach(std::size_t count, const IndexFn &task) const;

    int workers_;
};

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_POOL_HH
