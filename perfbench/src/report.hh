/**
 * @file
 * What one benchmark run reports: the workload context every
 * workload receives, its outcome (attempted/failed operations and
 * metrics), the per-layer metrics derived from a traced replay, and
 * the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check.hh"
#include "trace.hh"

namespace perfbench
{

/** Engine worker threads of figures_cold and sweep_warm. */
inline constexpr int kWorkers = 4;

struct Context
{
    std::string root;    //!< checkout root (reads ci/golden from here)
    std::string workDir; //!< working directory owned by this run
    std::string traceOut; //!< where a traced run writes its spans
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Checker *check = nullptr;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Timed passes every workload makes, whatever --seconds is. */
inline constexpr std::size_t kMinPasses = 3;

/** What a workload's timed part measured, pass by pass. */
struct Timed
{
    std::vector<double> passS; //!< wall time of each pass
    /** Request latencies of each pass, seconds. */
    std::vector<std::vector<double>> latencyS;
    std::uint64_t requests = 0; //!< completed requests

    void addPass(double wallS, std::vector<double> latencies)
    {
        passS.push_back(wallS);
        latencyS.push_back(std::move(latencies));
    }

    /**
     * Whether to run another pass of a timed part that began at
     * @p startS: until kMinPasses are done, and then while one more
     * pass as long as the last still ends within @p seconds.
     */
    bool another(double startS, double seconds) const
    {
        return passS.size() < kMinPasses ||
               nowS() - startS + passS.back() <= seconds;
    }
};

/**
 * The end-to-end metrics in BENCHMARK.json order: wall_s (median
 * pass), p50_ms / p99_ms (request latency), requests_per_s (over the
 * summed pass time), setup_s, peak_rss_mb.
 *
 * p50_ms is the median over passes of each pass's median latency.
 * p99_ms is the median over passes of each pass's p99 when every pass
 * holds enough samples for it, else the p99 of all samples pooled;
 * when even the pool is too small it falls back to the median over
 * passes of each pass's slowest request, and says so on stderr.
 * Medians over passes keep a burst of host noise in a few passes
 * from moving the figure.
 */
void addEndToEnd(Outcome &out, const std::string &workload,
                 const Timed &timed, double setupS);

/**
 * The per-layer metrics of a traced replay. @p passS is the wall time
 * of the traced replay, @p overhead its ratio to the untraced one.
 */
void addPerLayer(Outcome &out, const Tracer &tracer, double passS,
                 double overhead);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Outcome &out, bool correct);

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
