#include "obs/collector.hh"

#include <utility>

#include "common/stats.hh"

namespace canon
{
namespace obs
{

namespace
{

thread_local Collector *tlsCollector = nullptr;

} // namespace

void
Collector::recordFabricRun(const StatGroup &stats, std::uint64_t cycles,
                           SeriesSet series, AccountingSet accounting)
{
    FabricRunObs run;
    run.cycles = cycles;
    run.series = std::move(series);
    if (obs_.options.wantFlatStats())
        run.flat = stats.flatten();
    run.accounting = std::move(accounting);
    obs_.runs.push_back(std::move(run));
}

void
Collector::adoptRuns(Collector &child)
{
    for (auto &run : child.obs_.runs)
        obs_.runs.push_back(std::move(run));
    child.obs_.runs.clear();
}

std::shared_ptr<const ScenarioObs>
Collector::finish()
{
    return std::make_shared<const ScenarioObs>(std::move(obs_));
}

Collector *
current()
{
    return tlsCollector;
}

ScopedCollector::ScopedCollector(Collector *c) : prev_(tlsCollector)
{
    tlsCollector = c;
}

ScopedCollector::~ScopedCollector()
{
    tlsCollector = prev_;
}

} // namespace obs
} // namespace canon
