#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <unordered_map>
#include <utility>

namespace perfbench
{

namespace
{

/** Open spans on this thread, innermost last. */
thread_local std::vector<std::pair<const Tracer *, std::uint64_t>>
    t_open;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
nowS()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::uint64_t
Tracer::open(const char *name, std::uint64_t req)
{
    if (!enabled_)
        return 0;
    std::uint64_t parent = 0;
    for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
        if (it->first == this) {
            parent = it->second;
            break;
        }
    SpanRec rec;
    rec.parent = parent;
    rec.name = name;
    rec.req = req;
    rec.t0 = nowS();
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = spans_.size() + 1;
        rec.id = id;
        spans_.push_back(std::move(rec));
    }
    t_open.emplace_back(this, id);
    return id;
}

void
Tracer::close(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double t1 = nowS();
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id - 1].t1 = t1;
    }
    for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
        if (it->first == this && it->second == id) {
            t_open.erase(std::next(it).base());
            break;
        }
}

void
Tracer::count(const std::string &name, double v)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += v;
}

void
Tracer::sample(const std::string &name, double v)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(v);
}

std::vector<SpanRec>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

double
Tracer::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double>
Tracer::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << std::setprecision(9) << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"name\": \""
            << jsonEscape(s.name) << "\", \"req\": " << s.req
            << ", \"start_s\": " << s.t0 << ", \"end_s\": " << s.t1
            << "}";
    }
    out << "],\n\"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters_) {
        out << (first ? "" : ", ") << "\"" << jsonEscape(name)
            << "\": " << v;
        first = false;
    }
    out << "},\n\"samples\": {";
    first = true;
    for (const auto &[name, vs] : samples_) {
        out << (first ? "" : ", ") << "\"" << jsonEscape(name)
            << "\": [";
        for (std::size_t i = 0; i < vs.size(); ++i)
            out << (i ? ", " : "") << vs[i];
        out << "]";
        first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

std::map<std::string, double>
selfTimes(const std::vector<SpanRec> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const SpanRec *>>
        children;
    for (const SpanRec &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> out;
    for (const SpanRec &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const SpanRec *c : it->second) {
                const double a = std::max(c->t0, s.t0);
                const double b = std::min(c->t1, s.t1);
                if (b > a)
                    iv.emplace_back(a, b);
            }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, end = s.t0;
        for (const auto &[a, b] : iv) {
            const double lo = std::max(a, end);
            if (b > lo)
                covered += b - lo;
            end = std::max(end, b);
        }
        out[s.name] += s.duration() - covered;
    }
    return out;
}

std::map<std::string, double>
inclusiveTimes(const std::vector<SpanRec> &spans)
{
    std::map<std::string, double> out;
    for (const SpanRec &s : spans)
        out[s.name] += s.duration();
    return out;
}

} // namespace perfbench
