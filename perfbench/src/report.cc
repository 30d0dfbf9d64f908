#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>

#include "stats.hh"

namespace perfbench
{

namespace
{

double
spanMedianMs(const std::vector<SpanRec> &spans, const std::string &name)
{
    std::vector<double> d;
    for (const SpanRec &s : spans)
        if (s.name == name)
            d.push_back(s.duration() * 1e3);
    return median(std::move(d));
}

} // namespace

void
addEndToEnd(Outcome &out, const std::string &workload, const Timed &timed,
            double setupS)
{
    std::vector<double> pooled, p50s, p99s, slowest;
    bool perPass = true;
    for (const std::vector<double> &pass : timed.latencyS) {
        pooled.insert(pooled.end(), pass.begin(), pass.end());
        p50s.push_back(median(pass));
        slowest.push_back(pass.empty()
                              ? 0.0
                              : *std::max_element(pass.begin(), pass.end()));
        if (auto p = percentile(pass, 99.0))
            p99s.push_back(*p);
        else
            perPass = false;
    }
    double p99;
    const char *how;
    if (perPass && !p99s.empty()) {
        p99 = median(p99s);
        how = "the median over passes of each pass's p99";
    } else if (auto p = percentile(pooled, 99.0)) {
        p99 = *p;
        how = "the p99 of all samples";
    } else {
        p99 = median(slowest);
        how = "the median over passes of each pass's slowest request "
              "(too few samples for p99)";
    }
    std::cerr << "perfbench: " << workload << ": " << timed.passS.size()
              << " timed passes, " << pooled.size()
              << " latency samples; p99_ms is " << how
              << "; pooled ms at p10/p25/p50/p75/p90:";
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
        const auto v = percentile(pooled, p);
        std::cerr << " " << (v ? std::to_string(*v * 1e3) : "-");
    }
    std::cerr << "\nperfbench: " << workload << ": pass s / p50 ms:";
    for (std::size_t i = 0; i < timed.passS.size(); ++i)
        std::cerr << " " << timed.passS[i] << "/" << p50s[i] * 1e3;
    std::cerr << "\n";

    double timedS = 0.0;
    for (double s : timed.passS)
        timedS += s;
    out.add("wall_s", median(timed.passS), "s");
    out.add("p50_ms", median(p50s) * 1e3, "ms");
    out.add("p99_ms", p99 * 1e3, "ms");
    out.add("requests_per_s",
            timedS > 0 ? static_cast<double>(timed.requests) / timedS : 0.0,
            "1/s");
    out.add("setup_s", setupS, "s");
    out.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
addPerLayer(Outcome &out, const Tracer &tracer, double passS,
            double overhead)
{
    const std::vector<SpanRec> spans = tracer.spans();
    std::map<std::string, double> self = selfTimes(spans);
    const std::map<std::string, double> incl = inclusiveTimes(spans);
    auto selfOf = [&](const char *n) {
        auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    auto inclOf = [&](const char *n) {
        auto it = incl.find(n);
        return it == incl.end() ? 0.0 : it->second;
    };
    auto countOf = [&](const char *n) {
        return static_cast<double>(
            std::count_if(spans.begin(), spans.end(),
                          [n](const SpanRec &s) { return s.name == n; }));
    };
    double longest = 0.0;
    for (const SpanRec &s : spans)
        if (s.name == "runner.job")
            longest = std::max(longest, s.duration());

    const double run = inclOf("core.run");
    out.add("core.run_s", selfOf("core.run"), "s");
    out.add("core.sim_cycles_per_s",
            run > 0 ? tracer.counter("core.cycles") / run : 0.0, "1/s");
    out.add("core.build_s", selfOf("core.build"), "s");
    out.add("sparse.gen_s", selfOf("sparse.gen"), "s");
    out.add("kernels.map_s", selfOf("kernels.map"), "s");
    out.add("workloads.canon_s", selfOf("workloads.canon"), "s");
    out.add("workloads.longest_scenario_s", longest, "s");
    out.add("baselines.model_s", selfOf("baselines.model"), "s");
    out.add("power.eval_s", selfOf("power.eval"), "s");

    const double busy = inclOf("runner.job");
    out.add("runner.jobs", countOf("runner.job"), "count");
    out.add("runner.busy_s", busy, "s");
    out.add("runner.utilization",
            passS > 0 ? busy / (kWorkers * passS) : 0.0, "ratio");

    out.add("engine.validate_s", selfOf("engine.validate"), "s");
    out.add("engine.plan_s", selfOf("engine.plan"), "s");
    out.add("engine.render_s", selfOf("engine.render"), "s");

    const double lookups = countOf("cache.lookup");
    out.add("cache.key_s", selfOf("cache.key"), "s");
    out.add("cache.lookups", lookups, "count");
    out.add("cache.hit_ratio",
            lookups > 0 ? tracer.counter("cache.hits") / lookups : 0.0,
            "ratio");
    out.add("cache.lookup_s", selfOf("cache.lookup"), "s");
    out.add("cache.decode_s", selfOf("cache.decode"), "s");
    out.add("cache.encode_s", selfOf("cache.encode"), "s");
    out.add("cache.store_s", selfOf("cache.store"), "s");
    out.add("cache.bytes_stored", tracer.counter("cache.bytes_stored"),
            "bytes");

    out.add("service.requests", countOf("service.request"), "count");
    out.add("service.rejected", tracer.counter("service.rejected"),
            "count");
    out.add("service.accept_ms", spanMedianMs(spans, "service.accept"),
            "ms");
    out.add("service.queue_wait_ms",
            median(tracer.samples("service.queue_wait_ms")), "ms");
    out.add("service.stream_ms", spanMedianMs(spans, "service.stream"),
            "ms");

    out.add("trace_overhead", overhead, "ratio");
}

std::string
resultJson(const Outcome &out, bool correct)
{
    std::ostringstream s;
    s.precision(10);
    s << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted
      << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        s << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    s << "}}";
    return s.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
