/**
 * @file
 * Summary statistics for the benchmark's timings.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench
{

/** Samples a percentile must have strictly beyond it to be reported. */
inline constexpr std::size_t kMinBeyond = 10;

/** Median (mean of the two middle values for an even count); 0 if empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank @p p-th percentile (0 < p < 100). Refuses -- returns
 * nullopt -- when fewer than kMinBeyond samples lie beyond the rank,
 * so a tail figure always rests on at least ten slower samples.
 */
std::optional<double> percentile(std::vector<double> v, double p);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
