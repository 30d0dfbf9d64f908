/**
 * @file
 * Replays of a workload's simulations through the simulator's public
 * calls, split into the layers the per-layer metrics name:
 *
 *   sparse.gen   randomSparse / randomDense / randomMask / fromDense
 *   kernels.map  mapSpmm / mapSddmm
 *   core.build   CanonFabric construction + load
 *   core.run     CanonFabric::run (simulated cycles -> "core.cycles")
 *   workloads.canon / baselines.model
 *                ArchSuite restricted to Canon / to the baselines
 *   power.eval   EnergyModel::evaluate on every profile
 *
 * and, for requests to a cached engine, the engine and cache layers:
 *
 *   engine.validate / engine.plan / engine.render
 *   cache.key / cache.lookup / cache.decode / cache.encode / cache.store
 *
 * The simulation helpers return the simulated cycles they produced,
 * so a replay doubles as an exact work check.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "trace.hh"
#include "workloads/suite.hh"

namespace perfbench
{

/** Sum of every architecture's simulated cycles in @p r. */
std::uint64_t totalCycles(const canon::CaseResult &r);

/**
 * One SpMM on a fresh fabric: Rng(@p seed) draws A (m x k at
 * @p sparsity) then B (k x n), exactly as CanonRunner::spmmShape and
 * the Figure 15 grid do for a single column pass.
 */
std::uint64_t coreSpmm(Tracer &tr, const canon::CanonConfig &cfg, int m,
                       int k, int n, double sparsity, std::uint64_t seed);

/**
 * One SDDMM on a fresh fabric, drawn like CanonRunner::sddmmShape:
 * A (m x kp), B (kp x n), then the output mask at @p sparsity.
 */
std::uint64_t coreSddmm(Tracer &tr, const canon::CanonConfig &cfg, int m,
                        int n, double sparsity, std::uint64_t seed);

/**
 * Run @p run once on a Canon-only ArchSuite and once on a
 * baselines-only one, then evaluate every profile's energy. Returns
 * the cycles of both halves; @p out (when non-null) receives the
 * merged result.
 */
std::uint64_t
archSplit(Tracer &tr, const canon::CanonConfig &cfg,
          const std::function<canon::CaseResult(const canon::ArchSuite &)>
              &run,
          canon::CaseResult *out = nullptr);

/**
 * The engine-side work of one request to @p eng, replayed through
 * public calls: validate + expand (engine.validate), Engine::plan
 * (engine.plan), then per scenario scenarioKey (cache.key) and
 * ResultStore::lookup in the engine's cache directory (cache.lookup).
 * A hit is decoded (cache.decode). A miss is simulated layer by layer
 * (coreSpmm / coreSddmm, then archSplit) and its result encoded
 * (cache.encode) and stored into @p freshDir (cache.store). With
 * @p storeHits, hits are encoded and stored too, which replays a cold
 * run's write path without simulating. Rendering is the caller's
 * (engine.render). Returns the results in expansion order.
 */
std::vector<canon::runner::ScenarioResult>
replayScenarios(Tracer &tr, canon::engine::Engine &eng,
                canon::engine::ScenarioRequest req,
                const std::string &freshDir, bool storeHits);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
