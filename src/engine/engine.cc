#include "engine/engine.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cache/payload.hh"
#include "runner/shard.hh"
#include "workloads/models.hh"

namespace canon
{
namespace engine
{

namespace
{

/** Run one workload case across the requested architectures. */
CaseResult
runSuiteCase(const cli::Options &opt)
{
    ArchSuite suite(opt.fabricConfig(), opt.archs);
    if (!opt.model.empty())
        return suite.model(opt.sparsitySet
                               ? modelByName(opt.model, opt.sparsity)
                               : modelByName(opt.model),
                           opt.seed);
    switch (opt.workload) {
      case cli::Workload::Gemm:
        return suite.gemm(opt.m, opt.k, opt.n, opt.seed);
      case cli::Workload::Spmm:
        return suite.spmm(opt.m, opt.k, opt.n, opt.sparsity,
                          opt.seed);
      case cli::Workload::SpmmNm:
        return suite.spmmNm(opt.m, opt.k, opt.n, opt.nmN, opt.nmM,
                            opt.seed);
      case cli::Workload::Sddmm:
        return suite.sddmm(opt.m, opt.k, opt.n, opt.sparsity,
                           opt.seed);
      case cli::Workload::SddmmWindow:
        return suite.sddmmWindow(opt.m, opt.k, opt.window, opt.seed);
    }
    return {};
}

} // namespace

CaseResult
runScenarioCases(const cli::Options &opt)
{
    // ArchSuite only simulates the selected architectures, so the
    // canon-only run needs no separate fast path; the filter below
    // just pins the result to exactly what was asked for.
    cli::Options o = opt;
    if (o.archs.empty()) // Options contract: empty means canon only
        o.archs.push_back("canon");
    CaseResult all = runSuiteCase(o);
    CaseResult r;
    for (const auto &a : o.archs) {
        auto it = all.find(a);
        if (it != all.end())
            r[a] = it->second;
    }
    return r;
}

EngineConfig
makeEngineConfig(const CommonFlags &flags, int default_jobs)
{
    EngineConfig cfg;
    cfg.jobs = flags.jobs > 0 ? flags.jobs : default_jobs;
    cfg.cacheDir = flags.cacheDir;
    cfg.cacheMode = flags.cacheMode;
    return cfg;
}

const char *
forecastName(ScenarioPlan::Forecast f)
{
    switch (f) {
      case ScenarioPlan::Forecast::Hit:
        return "hit";
      case ScenarioPlan::Forecast::Miss:
        return "miss";
      case ScenarioPlan::Forecast::Uncached:
        return "uncached";
    }
    return "?";
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      workers_(config_.jobs > 0
                   ? config_.jobs
                   : static_cast<int>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      pool_(workers_)
{
    if (!config_.cacheDir.empty() &&
        config_.cacheMode != cache::Mode::Off)
        store_.emplace(config_.cacheDir, config_.cacheMode);
}

std::string
Engine::prepare()
{
    std::call_once(prepare_once_, [this] {
        if (store_)
            prepare_error_ = store_->prepare();
    });
    return prepare_error_;
}

std::string
Engine::cacheStatsLine() const
{
    return store_ ? store_->statsLine() : std::string();
}

namespace
{

/**
 * The per-request cache report: hit/miss/store counts attributed to
 * exactly the results in @p results (via the pool's per-job flags),
 * never the store's process-lifetime totals -- under a shared
 * long-lived engine every submission must report its own delta.
 * Cancelled jobs never touched the store, so they count as neither
 * hits nor executed misses.
 */
std::string
perRequestCacheLine(
    const std::vector<runner::ScenarioResult> &results)
{
    cache::CacheStats delta;
    for (const auto &r : results) {
        if (r.cacheHit)
            ++delta.hits;
        else if (!r.cancelled())
            ++delta.misses;
        if (r.cacheStored)
            ++delta.stores;
    }
    return cache::statsLineText(delta);
}

/**
 * Validate @p req, expand it and take its shard's slice: the job list
 * run()/runBatch() execute and plan() forecasts. nullopt when the
 * request is invalid; @p total (when given) receives the unsharded
 * job count.
 */
std::optional<std::vector<runner::SweepJob>>
shardedJobs(const ScenarioRequest &req, std::size_t *total = nullptr)
{
    if (!req.validate())
        return std::nullopt;
    std::vector<runner::SweepJob> jobs = req.expand();
    if (total)
        *total = jobs.size();
    const runner::Shard &shard = req.options().common.shard;
    if (shard.whole())
        return jobs;
    const auto [first, last] = runner::shardRange(shard, jobs.size());
    return std::vector<runner::SweepJob>(
        std::make_move_iterator(jobs.begin() +
                                static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(jobs.begin() +
                                static_cast<std::ptrdiff_t>(last)));
}

} // namespace

ResultSet
Engine::run(const ScenarioRequest &req, const ResultCallback &onResult,
            const runner::CancelToken *cancel)
{
    return std::move(runBatch({req}, onResult, cancel).front());
}

std::vector<ResultSet>
Engine::runBatch(const std::vector<ScenarioRequest> &requests,
                 const ResultCallback &onResult,
                 const runner::CancelToken *cancel)
{
    // Validate and expand everything first so one global job list
    // can feed a single pool pass: concurrency then spans request
    // boundaries instead of draining one request at a time. Work on
    // private copies: validation caches into the request's mutable
    // members without synchronization, so a const request shared
    // across threads must never be mutated through here.
    const std::vector<ScenarioRequest> local(requests.begin(),
                                             requests.end());
    std::vector<ResultSet> sets(local.size());
    std::vector<runner::SweepJob> all;
    struct Slice
    {
        bool runnable = false;
        std::size_t first = 0, count = 0;
    };
    std::vector<Slice> slices(local.size());

    for (std::size_t r = 0; r < local.size(); ++r) {
        const ScenarioRequest &req = local[r];
        ResultSet &rs = sets[r];
        std::size_t total = 0;
        auto jobs = shardedJobs(req, &total);
        rs.warnings_ = req.warnings();
        rs.shard_ = req.options().common.shard;
        if (!jobs) {
            rs.status_ = ResultSet::Status::InvalidRequest;
            rs.error_ = req.error();
            continue;
        }
        if (std::string err = prepare(); !err.empty()) {
            rs.status_ = ResultSet::Status::Failed;
            rs.error_ = err;
            continue;
        }
        rs.total_jobs_ = total;
        rs.single_ =
            req.options().sweepAxes.empty() && rs.shard_.whole();
        slices[r] = {true, all.size(), jobs->size()};
        all.insert(all.end(), std::make_move_iterator(jobs->begin()),
                   std::make_move_iterator(jobs->end()));
    }

    std::vector<runner::ScenarioResult> results =
        pool_.run(all, runScenarioCases, store(), onResult, cancel);
    std::vector<runner::SweepJob>().swap(all); // results hold copies

    for (std::size_t r = 0; r < local.size(); ++r) {
        if (!slices[r].runnable)
            continue;
        ResultSet &rs = sets[r];
        if (slices[r].count == results.size()) {
            // The only request with jobs (every run() call).
            rs.results_ = std::move(results);
        } else if (slices[r].count > 0) {
            const auto first =
                results.begin() +
                static_cast<std::ptrdiff_t>(slices[r].first);
            rs.results_.assign(
                std::make_move_iterator(first),
                std::make_move_iterator(
                    first +
                    static_cast<std::ptrdiff_t>(slices[r].count)));
        }
        if (store())
            rs.cache_stats_line_ = perRequestCacheLine(rs.results_);
        const obs::ObsOptions &obs_opt =
            local[r].options().common.obs;
        if (obs_opt.enabled())
            rs.obs_ = ObsReport::build(obs_opt, rs.results_, store());
    }
    return sets;
}

std::vector<ScenarioPlan>
Engine::plan(const ScenarioRequest &req)
{
    // Private copy, as in runBatch().
    const ScenarioRequest local = req;
    auto jobs = shardedJobs(local);
    if (!jobs)
        return {};

    std::vector<ScenarioPlan> plans;
    plans.reserve(jobs->size());
    for (auto &job : *jobs) {
        ScenarioPlan p;
        p.key = cache::scenarioKey(job.options);
        if (!store_) {
            p.forecast = ScenarioPlan::Forecast::Uncached;
        } else if (!store_->readsEnabled()) {
            // Write/Refresh modes execute every scenario regardless
            // of what is already stored.
            p.forecast = ScenarioPlan::Forecast::Miss;
        } else {
            // The pool's own hit predicate. Lookups leave the
            // hit/miss counters untouched.
            CaseResult decoded;
            auto payload = store_->lookup(p.key);
            p.forecast =
                payload && runner::decodeScenarioCases(*payload, decoded)
                    ? ScenarioPlan::Forecast::Hit
                    : ScenarioPlan::Forecast::Miss;
        }
        p.job = std::move(job);
        plans.push_back(std::move(p));
    }
    return plans;
}

void
Engine::runJobs(const std::vector<runner::PoolJob> &jobs)
{
    // A missing cache directory degrades to computing everything
    // (lookups miss, stores fail quietly); callers that want to
    // surface the error check prepare() themselves first.
    prepare();
    pool_.execute(jobs, store());
}

std::vector<std::string>
Engine::runPayloadBatch(const std::vector<PayloadJob> &jobs)
{
    // The identity codec: the payload is the slot.
    std::vector<std::string> payloads(jobs.size());
    std::vector<runner::JobOutcome> outcomes(jobs.size());
    std::vector<runner::PoolJob> pool_jobs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string &payload = payloads[i];
        runner::PoolJob &j = pool_jobs[i];
        j.key = [&key = jobs[i].key] { return key; };
        j.compute = [&payload, &compute = jobs[i].compute] {
            payload = compute();
        };
        j.encode = [&payload] { return payload; };
        j.decode = [&payload](const std::string &stored) {
            payload = stored;
            return true;
        };
        j.outcome = &outcomes[i];
    }
    runJobs(pool_jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!outcomes[i].error.empty())
            throw std::runtime_error("job " + std::to_string(i) + ": " +
                                     outcomes[i].error);
    return payloads;
}

} // namespace engine
} // namespace canon
