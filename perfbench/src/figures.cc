/**
 * @file
 * figures_cold: the Figure 12, 14 and 15 grids on an uncached
 * 4-worker engine, run back to back the way the bench binaries run
 * them. The grids fix their own seeds, so --seed does not change the
 * inputs of this workload.
 *
 * Set-up replays every grid point through the public calls on a
 * payload batch (Engine::runPayloadBatch) and sums the simulated
 * cycles: the exact work check. It runs kSetups times; setup_s is
 * the median. The timed passes then run FigureBench::run for the
 * three figures; each pass's CSVs are compared with ci/golden (fig12,
 * fig14) and with recorded digests (fig15, every figure's rendered
 * stdout).
 */

#include <memory>
#include <sstream>

#include "bench_util.hh"
#include "cache/key.hh"
#include "engine/engine.hh"
#include "figures.hh"
#include "replay.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace canon;

namespace
{

constexpr int kSetups = 3;
constexpr int kTraceRounds = 2;

/** One grid point of the three figures, in bench job order. */
struct FigPoint
{
    enum class Fig
    {
        Fig12,
        Fig14,
        Fig15Main,
        Fig15Control,
    };
    Fig fig;
    std::size_t index = 0; //!< fig12 case / fig14 model
    int scale = 0;         //!< fig15 array scale
    std::string sparsity;  //!< fig15 axis text
};

/*
 * The replay restates the three grids, because their emit closures
 * cannot be split into layers from outside. It must track:
 *   - bench/figures/perf.cc, figure12Bench (one point per
 *     figure12Labels() case) and figure14Bench (the model list and
 *     the seeds 300 + 10 * index);
 *   - bench/figures/scaling.cc, figure15Bench: the main table
 *     (scale 1..8 x sparsity 0.30/0.60/0.90, an 8 x 8*scale fabric,
 *     m 96, k 256 * scale, seed scale * 100 + sparsity * 10) and the
 *     control table (scale 1/2/4/8 x sparsity 0.30/0.60, m = k = 256,
 *     seed 900 + scale * 10 + sparsity * 10).
 * runFiguresCold fails when the point count differs from the benches'
 * job count; a changed formula shows as a changed cycle total.
 */

/** The Figure 14 models in paper order. */
const std::vector<ModelSpec> &
fig14Models()
{
    static const std::vector<ModelSpec> models = {
        resnet50Conv(0.5), llama8bMlp(0.0),  llama8bMlp(0.7),
        llama8bAttn(0.7),  mistral7bMlp(0.0), mistral7bMlp(0.7),
        mistral7bAttn(),   longformerAttn(),
    };
    return models;
}

std::vector<FigPoint>
figurePoints()
{
    std::vector<FigPoint> pts;
    for (std::size_t i = 0; i < bench::figure12Labels().size(); ++i)
        pts.push_back({FigPoint::Fig::Fig12, i, 0, ""});
    for (std::size_t i = 0; i < fig14Models().size(); ++i)
        pts.push_back({FigPoint::Fig::Fig14, i, 0, ""});
    for (int scale = 1; scale <= 8; ++scale)
        for (const char *sp : {"0.30", "0.60", "0.90"})
            pts.push_back({FigPoint::Fig::Fig15Main, 0, scale, sp});
    for (int scale : {1, 2, 4, 8})
        for (const char *sp : {"0.30", "0.60"})
            pts.push_back({FigPoint::Fig::Fig15Control, 0, scale, sp});
    return pts;
}

/** Simulated cycles of one grid point, replayed layer by layer. */
std::uint64_t
replayPoint(Tracer &tr, const FigPoint &p)
{
    const CanonConfig paper = CanonConfig::paper();
    switch (p.fig) {
      case FigPoint::Fig::Fig12:
        // The PolyBench group cases run Canon and the CGRA model
        // whatever the suite's filter, so they are not split.
        if (p.index >= 9) {
            Span s(tr, "workloads.canon");
            return totalCycles(
                bench::figure12Case(p.index, ArchSuite(paper)).results);
        }
        return archSplit(tr, paper, [&](const ArchSuite &suite) {
            return bench::figure12Case(p.index, suite).results;
        });
      case FigPoint::Fig::Fig14:
        return archSplit(tr, paper, [&](const ArchSuite &suite) {
            return suite.model(fig14Models()[p.index], 300 + 10 * p.index);
        });
      case FigPoint::Fig::Fig15Main:
      case FigPoint::Fig::Fig15Control: {
        // bench/figures/scaling.cc: an 8 x 8*scale fabric, one
        // column pass of CanonRunner::spmmExact.
        Span s(tr, "workloads.canon");
        const double sp = std::stod(p.sparsity);
        CanonConfig cfg;
        cfg.rows = 8;
        cfg.cols = 8 * p.scale;
        const int n = cfg.cols * kSimdWidth;
        const auto sp10 = static_cast<std::uint64_t>(sp * 10);
        if (p.fig == FigPoint::Fig::Fig15Main)
            return coreSpmm(tr, cfg, 96, 256 * p.scale, n, sp,
                            static_cast<std::uint64_t>(p.scale) * 100 +
                                sp10);
        return coreSpmm(tr, cfg, 256, 256, n, sp,
                        900 + static_cast<std::uint64_t>(p.scale) * 10 +
                            sp10);
      }
    }
    return 0;
}

struct Replay
{
    std::uint64_t cycles = 0;
    double wallS = 0.0;
};

/** Every grid point as one payload batch on an uncached engine. */
Replay
replayFigures(Tracer &tr)
{
    const double t0 = nowS();
    engine::EngineConfig cfg;
    cfg.jobs = kWorkers;
    engine::Engine eng(cfg);
    const std::vector<FigPoint> pts = figurePoints();
    std::vector<engine::PayloadJob> jobs;
    for (std::size_t i = 0; i < pts.size(); ++i)
        jobs.push_back({cache::figureKey("perfbench", "figures_cold",
                                         std::to_string(i)),
                        [&tr, &p = pts[i]] {
                            Span s(tr, "runner.job");
                            return std::to_string(replayPoint(tr, p));
                        }});
    Replay r;
    {
        Span s(tr, "pass");
        for (const std::string &payload : eng.runPayloadBatch(jobs))
            r.cycles += std::stoull(payload);
    }
    r.wallS = nowS() - t0;
    return r;
}

} // namespace

Outcome
runFiguresCold(const Context &ctx)
{
    Outcome out;
    Checker &check = *ctx.check;
    const std::size_t points = figurePoints().size();
    const std::vector<bench::FigureBench> benches = {
        bench::figure12Bench(), bench::figure14Bench(),
        bench::figure15Bench()};
    std::size_t jobs = 0;
    for (const bench::FigureBench &b : benches)
        jobs += b.jobCount();
    if (!check.require(jobs == points,
                       "the replay's " + std::to_string(points) +
                           " grid points differ from the benches' " +
                           std::to_string(jobs) + " jobs")) {
        ++out.attempted;
        ++out.failed;
        return out;
    }

    // One replay, checked against the recorded cycle total.
    auto replay = [&](Tracer &tr) {
        const Replay r = replayFigures(tr);
        out.attempted += points;
        if (!check.expect("figures_cold.cycles", std::to_string(r.cycles)))
            ++out.failed;
        return r.wallS;
    };

    if (ctx.trace) {
        // A set-up replay warms the host's caches; then untraced and
        // traced replays alternate, and the last traced one gives the
        // per-layer figures.
        Tracer off(false);
        replay(off);
        std::vector<double> base, traced;
        std::unique_ptr<Tracer> tr;
        for (int i = 0; i < kTraceRounds; ++i) {
            base.push_back(replay(off));
            tr = std::make_unique<Tracer>(true);
            traced.push_back(replay(*tr));
        }
        addPerLayer(out, *tr, traced.back(), median(traced) / median(base));
        tr->writeJson(ctx.traceOut);
        return out;
    }

    // Set-up: the reference replay, kSetups times.
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        Tracer off(false);
        setupS.push_back(replay(off));
    }

    const std::string golden = ctx.root + "/ci/golden/";

    Timed timed;
    const double start = nowS();
    do {
        const double p0 = nowS();
        std::vector<double> latencies;
        std::vector<std::string> stdouts;
        for (const bench::FigureBench &b : benches) {
            bench::BenchOptions opt;
            opt.common.jobs = kWorkers;
            std::ostringstream sout, serr;
            const double t0 = nowS();
            const int rc = b.run(opt, sout, serr);
            latencies.push_back(nowS() - t0);
            ++timed.requests;
            out.attempted += b.jobCount();
            if (!check.require(rc == 0, b.name() + " failed: " + serr.str()))
                out.failed += b.jobCount();
            stdouts.push_back(sout.str());
        }
        timed.addPass(nowS() - p0, std::move(latencies));

        // Output check, outside the timed pass.
        for (std::size_t i = 0; i < benches.size(); ++i)
            if (!check.expect("figures_cold.stdout." + benches[i].name(),
                              digest(stdouts[i])))
                ++out.failed;
        for (const char *csv : {"fig12_performance.csv", "fig14_edp.csv"}) {
            std::string got, want;
            const bool ok = readFile(csv, got) &&
                            readFile(golden + csv, want) && got == want;
            if (!check.require(ok, std::string(csv) +
                                       " differs from ci/golden"))
                ++out.failed;
        }
        for (const char *csv :
             {"fig15_scalability.csv", "fig15_fixed_ai.csv"}) {
            std::string got;
            if (!check.require(readFile(csv, got),
                               std::string("missing ") + csv) ||
                !check.expect(std::string("figures_cold.") + csv,
                              digest(got)))
                ++out.failed;
        }
    } while (timed.another(start, ctx.seconds));

    addEndToEnd(out, "figures_cold", timed, median(setupS));
    return out;
}

} // namespace perfbench
