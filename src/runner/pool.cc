#include "runner/pool.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cache/key.hh"
#include "cache/payload.hh"
#include "obs/host.hh"

namespace canon
{
namespace runner
{

void
ScenarioPool::forEach(
    std::size_t count,
    const std::function<void(std::size_t)> &task) const
{
    if (count == 0)
        return;

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            task(i);
        }
    };

    const int n = std::clamp(
        workers_, 1,
        static_cast<int>(std::min<std::size_t>(count, 256)));
    if (n == 1) {
        // Degenerate pool: run inline, no thread spawn.
        worker();
        return;
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
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
