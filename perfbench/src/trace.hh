/**
 * @file
 * Spans and counters recorded by the benchmark around its own calls
 * into the simulator's public functions.
 *
 * A Span is an RAII interval: name, start, end, the span that was
 * open on the same thread when it began (its parent), and a request
 * id shared by every span of one request. Spans live in memory until
 * the benchmark writes them out at exit (writeJson). A disabled
 * Tracer records nothing, so the same replay code runs with tracing
 * on and off and the ratio of the two wall times is the tracing
 * overhead.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (selfTimes).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since the first call in the process. */
double nowS();

struct SpanRec
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;
    std::uint64_t req = 0; //!< request id; 0 = none
    double t0 = 0.0;
    double t1 = 0.0;

    double duration() const { return t1 - t0; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span on this thread; returns its id (0 when disabled). */
    std::uint64_t open(const char *name, std::uint64_t req);

    /** Close span @p id (opened on this thread). */
    void close(std::uint64_t id);

    /** Add @p v to counter @p name. */
    void count(const std::string &name, double v = 1.0);

    /** Record one sample of distribution @p name. */
    void sample(const std::string &name, double v);

    std::vector<SpanRec> spans() const;
    double counter(const std::string &name) const;
    std::vector<double> samples(const std::string &name) const;

    /** Spans, counters and samples as one JSON document. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
    std::map<std::string, double> counters_;
    std::map<std::string, std::vector<double>> samples_;
};

/** RAII span; a no-op on a disabled tracer. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::uint64_t req = 0)
        : tracer_(tracer), id_(tracer.open(name, req))
    {
    }
    ~Span() { tracer_.close(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/** Self time per span name, summed over every span of that name. */
std::map<std::string, double> selfTimes(const std::vector<SpanRec> &spans);

/** Inclusive time per span name, summed over every span of that name. */
std::map<std::string, double>
inclusiveTimes(const std::vector<SpanRec> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
