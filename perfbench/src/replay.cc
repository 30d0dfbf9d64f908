#include "replay.hh"

#include <memory>
#include <optional>

#include "cache/key.hh"
#include "cache/payload.hh"
#include "cache/store.hh"
#include "common/rng.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "power/energy.hh"
#include "sparse/generate.hh"

namespace perfbench
{

using namespace canon;

namespace
{

std::uint64_t
runFabric(Tracer &tr, const CanonConfig &cfg, KernelMapping mapping,
          const char *workload)
{
    std::unique_ptr<CanonFabric> fabric;
    {
        Span s(tr, "core.build");
        fabric = std::make_unique<CanonFabric>(cfg);
        fabric->load(std::move(mapping));
    }
    {
        Span s(tr, "core.run");
        tr.count("core.cycles", static_cast<double>(fabric->run()));
    }
    return fabric->profile(workload).cycles;
}

} // namespace

std::uint64_t
totalCycles(const CaseResult &r)
{
    std::uint64_t sum = 0;
    for (const auto &[arch, profile] : r)
        sum += profile.cycles;
    return sum;
}

std::uint64_t
coreSpmm(Tracer &tr, const CanonConfig &cfg, int m, int k, int n,
         double sparsity, std::uint64_t seed)
{
    Rng rng(seed);
    auto gen = [&] {
        Span s(tr, "sparse.gen");
        const auto a = randomSparse(m, k, sparsity, rng);
        auto b = randomDense(k, n, rng);
        return std::make_pair(CsrMatrix::fromDense(a), std::move(b));
    };
    const auto [a, b] = gen();
    auto mapping = [&] {
        Span s(tr, "kernels.map");
        return mapSpmm(a, b, cfg);
    }();
    return runFabric(tr, cfg, std::move(mapping), "spmm");
}

std::uint64_t
coreSddmm(Tracer &tr, const CanonConfig &cfg, int m, int n,
          double sparsity, std::uint64_t seed)
{
    const int kp = cfg.cols * kSimdWidth;
    Rng rng(seed);
    auto gen = [&] {
        Span s(tr, "sparse.gen");
        auto a = randomDense(m, kp, rng);
        auto b = randomDense(kp, n, rng);
        auto mask = randomMask(m, n, sparsity, rng);
        return std::make_tuple(std::move(mask), std::move(a), std::move(b));
    };
    const auto [mask, a, b] = gen();
    auto mapping = [&] {
        Span s(tr, "kernels.map");
        return mapSddmm(mask, a, b, cfg);
    }();
    return runFabric(tr, cfg, std::move(mapping), "sddmm");
}

std::uint64_t
archSplit(Tracer &tr, const CanonConfig &cfg,
          const std::function<CaseResult(const ArchSuite &)> &run,
          CaseResult *out)
{
    static const std::vector<std::string> baselines = {
        "systolic", "systolic24", "zed", "cgra"};
    CaseResult canon_r, base_r;
    {
        Span s(tr, "workloads.canon");
        canon_r = run(ArchSuite(cfg, {"canon"}));
    }
    {
        Span s(tr, "baselines.model");
        base_r = run(ArchSuite(cfg, baselines));
    }
    {
        Span s(tr, "power.eval");
        const EnergyModel energy;
        double edp = 0.0;
        for (const CaseResult *r : {&canon_r, &base_r})
            for (const auto &[arch, profile] : *r)
                edp += energy.evaluate(profile).edp();
        tr.count("power.edp", edp);
    }
    const std::uint64_t cycles = totalCycles(canon_r) + totalCycles(base_r);
    if (out) {
        *out = std::move(canon_r);
        out->merge(base_r);
    }
    return cycles;
}

std::vector<runner::ScenarioResult>
replayScenarios(Tracer &tr, engine::Engine &eng, engine::ScenarioRequest req,
                const std::string &freshDir, bool storeHits)
{
    std::vector<runner::SweepJob> jobs;
    {
        Span s(tr, "engine.validate");
        req.validate();
        jobs = req.expand();
    }
    {
        Span s(tr, "engine.plan");
        eng.plan(req);
    }
    const cache::ResultStore warm(eng.store()->dir(), cache::Mode::Read);
    const cache::ResultStore fresh(freshDir, cache::Mode::ReadWrite);
    fresh.prepare();
    std::vector<runner::ScenarioResult> results;
    for (const runner::SweepJob &job : jobs) {
        const cli::Options &o = job.options;
        cache::ScenarioKey key;
        {
            Span s(tr, "cache.key");
            key = cache::scenarioKey(o);
        }
        std::optional<std::string> payload;
        {
            Span s(tr, "cache.lookup");
            payload = warm.lookup(key);
        }
        runner::ScenarioResult &sr = results.emplace_back();
        sr.job = job;
        if (payload) {
            tr.count("cache.hits");
            Span s(tr, "cache.decode");
            cache::decodeCaseResult(*payload, sr.cases);
            if (!storeHits)
                continue;
        } else {
            const CanonConfig cfg = o.fabricConfig();
            const bool sddmm = o.workload == cli::Workload::Sddmm;
            const int m = static_cast<int>(o.m);
            if (sddmm)
                coreSddmm(tr, cfg, m, static_cast<int>(o.n), o.sparsity,
                          o.seed);
            else
                coreSpmm(tr, cfg, m, static_cast<int>(o.k),
                         cfg.cols * kSimdWidth, o.sparsity, o.seed);
            archSplit(
                tr, cfg,
                [&](const ArchSuite &suite) {
                    return sddmm ? suite.sddmm(o.m, o.k, o.n, o.sparsity,
                                               o.seed)
                                 : suite.spmm(o.m, o.k, o.n, o.sparsity,
                                              o.seed);
                },
                &sr.cases);
        }
        std::string bytes;
        {
            Span s(tr, "cache.encode");
            bytes = cache::encodeCaseResult(sr.cases);
        }
        {
            Span s(tr, "cache.store");
            fresh.store(key, bytes);
        }
        tr.count("cache.bytes_stored", static_cast<double>(bytes.size()));
    }
    return results;
}

} // namespace perfbench
