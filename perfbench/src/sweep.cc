/**
 * @file
 * sweep_warm: a canonsim-style sweep (spmm and sddmm, sparsity x
 * seed x rows, every architecture) resubmitted to a warm cache.
 *
 * Set-up runs the sweep cold into a fresh cache directory three
 * times (setup_s is the median); the timed part resubmits the same
 * request to Engine::run, so the cache read path, request expansion
 * and rendering do all the work and the cycle loop none. Every warm
 * pass must be all hits, execute zero jobs, and render exactly the
 * bytes of the cold run.
 */

#include <memory>
#include <sstream>

#include "engine/engine.hh"
#include "replay.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace canon;

namespace
{

constexpr int kSetups = 3;
constexpr int kTraceRounds = 5;
constexpr int kSimSeeds = 60; //!< 2 x 5 x 60 x 2 = 1200 scenarios

engine::ScenarioRequest
sweepRequest(std::uint64_t variant)
{
    std::string seeds;
    for (int i = 0; i < kSimSeeds; ++i)
        seeds += (i ? "," : "") + std::to_string(1 + variant * 1000 + i);
    engine::ScenarioRequest req;
    req.shape(64, 64, 64)
        .archs({"all"})
        .sweep("workload", "spmm,sddmm")
        .sweep("sparsity", "0.5,0.6,0.7,0.8,0.9")
        .sweep("seed", seeds)
        .sweep("rows", "4,8");
    return req;
}

std::string
render(const engine::ResultSet &rs)
{
    std::ostringstream s;
    rs.sweepTable().print(s);
    return s.str();
}

std::uint64_t
cycles(const engine::ResultSet &rs)
{
    std::uint64_t sum = 0;
    for (const auto &r : rs.scenarios())
        sum += totalCycles(r.cases);
    return sum;
}

/**
 * The warm pass replayed through the public calls it is made of (see
 * replayScenarios), with every hit also encoded and stored into
 * @p freshDir as the cold set-up does, then the sweep table rendered.
 * Returns its wall time.
 */
double
replayWarm(Tracer &tr, engine::Engine &eng,
           const engine::ScenarioRequest &req, const engine::ResultSet &rs,
           const std::string &freshDir)
{
    const double t0 = nowS();
    Span pass(tr, "pass");
    replayScenarios(tr, eng, req, freshDir, true);
    {
        Span s(tr, "engine.render");
        render(rs);
    }
    return nowS() - t0;
}

} // namespace

Outcome
runSweepWarm(const Context &ctx)
{
    Outcome out;
    Checker &check = *ctx.check;
    const std::uint64_t variant = ctx.seed % kVariants;
    const std::string v = std::to_string(variant);
    const engine::ScenarioRequest req = sweepRequest(variant);

    // Set-up: the cold sweep into a fresh cache directory, kSetups
    // times; the last engine stays warm for the timed part.
    std::vector<double> setupS;
    std::unique_ptr<engine::Engine> eng;
    engine::ResultSet cold;
    std::string coldText;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = nowS();
        engine::EngineConfig cfg;
        cfg.jobs = kWorkers;
        cfg.cacheDir = ctx.workDir + "/cache" + std::to_string(i);
        eng = std::make_unique<engine::Engine>(cfg);
        cold = eng->run(req);
        coldText = render(cold);
        setupS.push_back(nowS() - t0);

        out.attempted += cold.size();
        out.failed += cold.failureCount();
        std::size_t stored = 0;
        for (const auto &r : cold.scenarios())
            stored += r.cacheStored;
        out.failed += !check.require(cold.ok() && stored == cold.size(),
                                     "cold sweep: " + cold.error() + " " +
                                         cold.cacheStatsLine());
        out.failed += !check.expect("sweep_warm.cycles." + v,
                                    std::to_string(cycles(cold)));
        out.failed += !check.expect("sweep_warm.table." + v,
                                    digest(coldText));
    }

    if (ctx.trace) {
        // Untraced and traced replays alternate; the last traced one
        // gives the per-layer figures.
        std::vector<double> base, traced;
        std::unique_ptr<Tracer> tr;
        for (int i = 0; i < kTraceRounds; ++i) {
            const std::string dir = ctx.workDir + "/replay" +
                                    std::to_string(i);
            Tracer off(false);
            base.push_back(replayWarm(off, *eng, req, cold, dir + "-off"));
            tr = std::make_unique<Tracer>(true);
            traced.push_back(replayWarm(*tr, *eng, req, cold, dir + "-on"));
        }
        addPerLayer(out, *tr, traced.back(), median(traced) / median(base));
        tr->writeJson(ctx.traceOut);
        return out;
    }

    Timed timed;
    const double start = nowS();
    do {
        std::vector<double> arrivals;
        arrivals.reserve(cold.size());
        const double t0 = nowS();
        const engine::ResultSet warm =
            eng->run(req, [&](const runner::ScenarioResult &) {
                arrivals.push_back(nowS() - t0);
            });
        const std::string text = render(warm);
        timed.addPass(nowS() - t0, std::move(arrivals));
        ++timed.requests;

        std::size_t hits = 0;
        for (const auto &r : warm.scenarios())
            hits += r.cacheHit;
        out.attempted += warm.size();
        out.failed += warm.failureCount();
        if (!check.require(warm.ok() && hits == cold.size() &&
                               warm.size() == cold.size(),
                           "warm pass executed jobs: " +
                               warm.cacheStatsLine()) ||
            !check.require(text == coldText,
                           "warm pass output differs from the cold run"))
            ++out.failed;
    } while (timed.another(start, ctx.seconds));

    addEndToEnd(out, "sweep_warm", timed, median(setupS));
    return out;
}

} // namespace perfbench
