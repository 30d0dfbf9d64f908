#include "runner/pool.hh"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "cache/key.hh"
#include "cache/payload.hh"
#include "obs/host.hh"

namespace canon
{
namespace runner
{

namespace
{

/** The unclaimed and unfinished indices of one parallelFor call. */
struct ForkGroup
{
    const IndexFn *fn;
    std::size_t front;      //!< next index a thief takes
    std::size_t back;       //!< one past the next index the owner takes
    std::size_t unfinished; //!< indices not yet finished
};

/**
 * One forEach pass: the top-level jobs [0, count) and a board of fork
 * groups opened by the jobs while they run, all under one mutex and
 * condvar. Workers take a forked index before a fresh job (it belongs
 * to a job already running); a forking thread takes its own indices
 * from the back and, while stolen ones are out, helps only with
 * forked indices. Every worker installs the pass as its thread's
 * ForkJoinExecutor, so parallelFor inside a job (or inside a forked
 * index) reaches it.
 */
class Pass final : public ForkJoinExecutor
{
  public:
    Pass(std::size_t count, int workers, const IndexFn &task)
        : count_(count), workers_(workers), task_(task)
    {
    }

    /** Run the pass from the calling thread; returns once it is done. */
    void run();

    void forkJoin(std::size_t n, const IndexFn &fn) override;

  private:
    /** A worker: forked indices first, then jobs, until none remain. */
    void work();

    /** Claim and run the oldest group's front index; false if none. */
    bool runForked(std::unique_lock<std::mutex> &lock);

    /** Run index @p i of @p g unlocked, then count it finished. */
    void runIndex(std::unique_lock<std::mutex> &lock, ForkGroup &g,
                  std::size_t i);

    /** Drop @p g from the board once its last index is claimed. */
    void closeIfClaimed(ForkGroup &g);

    std::mutex mutex_;
    std::condition_variable cv_;
    const std::size_t count_;
    const int workers_;
    const IndexFn &task_;
    std::size_t nextJob_ = 0;
    std::size_t runningJobs_ = 0;
    std::vector<ForkGroup *> board_; //!< groups with unclaimed indices
    std::vector<std::thread> threads_;
    int started_ = 0; //!< worker loops started, the caller's included
    bool forked_ = false;
};

void
Pass::run()
{
    const int up_front = static_cast<int>(
        std::min(count_, static_cast<std::size_t>(workers_)));
    if (up_front == 1) {
        // One job runs on the caller's thread; its first fork starts
        // the helpers.
        started_ = 1;
        work();
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        for (; started_ < up_front; ++started_)
            threads_.emplace_back([this] { work(); });
    }
    // Threads are only added by running workers, so once every thread
    // seen so far has been joined, none can be added any more.
    for (std::size_t t = 0;; ++t) {
        std::thread th;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (t == threads_.size())
                return;
            th = std::move(threads_[t]);
        }
        th.join();
    }
}

void
Pass::work()
{
    ScopedForkJoinExecutor scope(this);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (runForked(lock))
            continue;
        if (nextJob_ < count_) {
            const std::size_t i = nextJob_++;
            ++runningJobs_;
            lock.unlock();
            task_(i);
            lock.lock();
            if (--runningJobs_ == 0 && nextJob_ == count_)
                cv_.notify_all();
            continue;
        }
        // A running job may still fork: stay until none is left.
        if (runningJobs_ == 0)
            return;
        cv_.wait(lock);
    }
}

bool
Pass::runForked(std::unique_lock<std::mutex> &lock)
{
    if (board_.empty())
        return false;
    ForkGroup &g = *board_.front();
    const std::size_t i = g.front++;
    closeIfClaimed(g);
    runIndex(lock, g, i);
    return true;
}

void
Pass::runIndex(std::unique_lock<std::mutex> &lock, ForkGroup &g,
               std::size_t i)
{
    lock.unlock();
    (*g.fn)(i);
    lock.lock();
    if (--g.unfinished == 0)
        cv_.notify_all();
}

void
Pass::closeIfClaimed(ForkGroup &g)
{
    if (g.front == g.back)
        board_.erase(std::find(board_.begin(), board_.end(), &g));
}

void
Pass::forkJoin(std::size_t n, const IndexFn &fn)
{
    // Each index observes into a child of the forking job's collector
    // (or into none: a helper must not report into its own job's);
    // the children merge in index order after the join, so artifacts
    // match a serial run whatever ran where.
    obs::Collector *parent = obs::current();
    std::vector<std::unique_ptr<obs::Collector>> children;
    if (parent)
        for (std::size_t i = 0; i < n; ++i)
            children.push_back(
                std::make_unique<obs::Collector>(parent->options()));
    const IndexFn observed = [&](std::size_t i) {
        obs::ScopedCollector scope(parent ? children[i].get() : nullptr);
        fn(i);
    };

    ForkGroup g{&observed, 0, n, n};
    std::unique_lock<std::mutex> lock(mutex_);
    board_.push_back(&g);
    if (!forked_) {
        // The first fork of the pass starts the remaining helpers.
        forked_ = true;
        try {
            for (; started_ < workers_; ++started_)
                threads_.emplace_back([this] { work(); });
        } catch (const std::system_error &) {
            // Out of threads: the ones running share the work.
        }
    }
    cv_.notify_all();
    for (;;) {
        if (g.front < g.back) {
            const std::size_t i = --g.back;
            closeIfClaimed(g);
            runIndex(lock, g, i);
        } else if (g.unfinished == 0) {
            break;
        } else if (!runForked(lock)) {
            cv_.wait(lock);
        }
    }
    lock.unlock();
    for (auto &child : children)
        parent->adoptRuns(*child);
}

} // namespace

void
ScenarioPool::forEach(std::size_t count, const IndexFn &task) const
{
    if (count == 0)
        return;
    const int workers = std::clamp(workers_, 1, 256);
    if (workers == 1) {
        // Degenerate pool: run inline, no thread spawn, no forking.
        ScopedForkJoinExecutor serial(nullptr);
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }
    Pass(count, workers, task).run();
}

bool
decodeScenarioCases(const std::string &payload, CaseResult &cases)
{
    if (cache::decodeCaseResult(payload, cases) && !cases.empty())
        return true;
    cases.clear();
    return false;
}

void
ScenarioPool::execute(const std::vector<PoolJob> &jobs,
                      const cache::ResultStore *store,
                      const std::function<void(std::size_t)> &onDone,
                      const CancelToken *cancel) const
{
    // Ordered streaming state: finished jobs are held back until
    // every lower-indexed job has finished, then released in one
    // in-order burst under the lock. A callback that throws must not
    // escape a worker thread (std::terminate); the first exception
    // is latched, delivery stops, and it rethrows on the caller's
    // thread after the pool has joined.
    std::mutex emit_mutex;
    std::vector<char> finished(jobs.size(), 0);
    std::size_t next_emit = 0;
    std::exception_ptr emit_error;
    auto emitReady = [&](std::size_t i) {
        if (!onDone)
            return;
        std::lock_guard<std::mutex> lock(emit_mutex);
        finished[i] = 1;
        while (!emit_error && next_emit < jobs.size() &&
               finished[next_emit]) {
            try {
                onDone(next_emit);
            } catch (...) {
                emit_error = std::current_exception();
            }
            ++next_emit;
        }
    };

    // Host phase timers (--host-timers) reference the pool's entry
    // time for the queue-wait measure. One clock read, taken only
    // when some job actually asked for host telemetry.
    std::uint64_t pool_t0 = 0;
    for (const PoolJob &j : jobs)
        if (j.obs && j.obs->hostTimers) {
            pool_t0 = obs::hostNowUs();
            break;
        }

    forEach(jobs.size(), [&](std::size_t i) {
        const PoolJob &job = jobs[i];
        JobOutcome &out = *job.outcome;

        // Cooperative cancel, polled once per job before any work:
        // a cancelled run skips everything it has not started --
        // including the cache probe, so the store's counters never
        // see skipped jobs -- but still lands a typed failure in the
        // job's slot to keep the expansion-order contract intact.
        if (cancel && cancel->cancelled()) {
            out.error = kCancelledError;
            emitReady(i);
            return;
        }

        // Observe this job when asked: the collector rides the worker
        // thread (obs::current()) so the fabric and cache layers can
        // report without plumbing. With obs off this is one branch.
        std::optional<obs::Collector> col;
        std::optional<obs::ScopedCollector> scope;
        if (job.obs && job.obs->enabled()) {
            col.emplace(*job.obs);
            scope.emplace(*col);
        }

        const bool timing = col && job.obs->hostTimers;
        obs::HostPhaseTimes host;
        if (timing) {
            host.measured = true;
            host.queueWaitUs = obs::hostNowUs() - pool_t0;
        }

        auto seal = [&] {
            if (!col)
                return;
            if (timing)
                col->recordHostTimes(host);
            scope.reset();
            out.obs = col->finish();
        };

        cache::ScenarioKey key;
        if (store)
            key = job.key();
        if (store && store->readsEnabled()) {
            if (col)
                col->recordCacheEvent(obs::CacheEventKind::Probe);
            const std::uint64_t t0 = timing ? obs::hostNowUs() : 0;
            // An undecodable entry (external corruption; torn files
            // cannot happen) falls through to a recompute instead of
            // failing the job.
            const auto payload = store->lookup(key);
            const bool hit = payload && job.decode(*payload);
            if (timing)
                host.cacheProbeUs = obs::hostNowUs() - t0;
            if (hit) {
                store->recordHit();
                out.cacheHit = true;
                if (col)
                    col->recordCacheEvent(obs::CacheEventKind::Hit);
                seal();
                emitReady(i);
                return;
            }
        }

        if (store) {
            store->recordMiss();
            if (col)
                col->recordCacheEvent(obs::CacheEventKind::Miss);
        }
        const std::uint64_t t_sim = timing ? obs::hostNowUs() : 0;
        try {
            job.compute();
        } catch (const std::exception &e) {
            out.error = e.what();
            if (out.error.empty())
                out.error = "unknown exception";
        } catch (...) {
            out.error = "unknown exception";
        }
        if (timing)
            host.simUs = obs::hostNowUs() - t_sim;

        // Only successful jobs are worth remembering; a failure
        // should re-run (and re-report) next time.
        if (store && store->writesEnabled() && out.error.empty()) {
            const std::uint64_t t_enc = timing ? obs::hostNowUs() : 0;
            const std::string payload = job.encode();
            const std::uint64_t t_store =
                timing ? obs::hostNowUs() : 0;
            if (timing)
                host.encodeUs = t_store - t_enc;
            store->store(key, payload, &out.cacheStored);
            if (timing)
                host.cacheStoreUs = obs::hostNowUs() - t_store;
            if (col)
                col->recordCacheEvent(obs::CacheEventKind::Store);
        }
        seal();
        emitReady(i);
    });
    if (emit_error)
        std::rethrow_exception(emit_error);
}

std::vector<ScenarioResult>
ScenarioPool::run(
    const std::vector<SweepJob> &jobs,
    const std::function<CaseResult(const cli::Options &)> &fn,
    const cache::ResultStore *store,
    const std::function<void(const ScenarioResult &)> &onResult,
    const CancelToken *cancel) const
{
    std::vector<ScenarioResult> results(jobs.size());
    std::vector<PoolJob> pool_jobs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ScenarioResult &r = results[i];
        r.job = jobs[i];
        PoolJob &j = pool_jobs[i];
        j.key = [&r] { return cache::scenarioKey(r.job.options); };
        j.obs = &r.job.options.common.obs;
        j.compute = [&r, &fn] {
            r.cases = fn(r.job.options);
            if (r.cases.empty())
                throw std::runtime_error(kNoArchError);
        };
        j.encode = [&r] { return cache::encodeCaseResult(r.cases); };
        j.decode = [&r](const std::string &payload) {
            return decodeScenarioCases(payload, r.cases);
        };
        j.outcome = &r;
    }
    std::function<void(std::size_t)> onDone;
    if (onResult)
        onDone = [&](std::size_t i) { onResult(results[i]); };
    execute(pool_jobs, store, onDone, cancel);
    return results;
}

} // namespace runner
} // namespace canon
