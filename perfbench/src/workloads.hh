/**
 * @file
 * The three benchmark workloads. Each runs set-up, the timed part
 * (or, with Context::trace, the traced replay) and the output check,
 * and returns what the run reports.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "report.hh"

namespace perfbench
{

Outcome runFiguresCold(const Context &ctx);
Outcome runSweepWarm(const Context &ctx);
Outcome runServiceMix(const Context &ctx);

/**
 * Inputs of sweep_warm and service_mix are drawn from one of
 * kVariants families picked by the seed, so expected.txt can record
 * the exact simulated-cycle total of every family.
 */
inline constexpr std::uint64_t kVariants = 16;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
