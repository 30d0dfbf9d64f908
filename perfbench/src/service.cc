/**
 * @file
 * service_mix: an in-process canond (service::Daemon with a cache
 * directory) serving kClients closed-loop service::Client
 * connections. Each client waits for Done before it submits again.
 *
 * Every request is a 4-scenario sparsity sweep at 128x128 on every
 * architecture. Two client names at two priorities share the daemon,
 * which admits kMaxActive of the kClients submissions at a time. Its
 * engine runs one worker, so each admitted request simulates on its
 * own connection thread: at most kMaxActive busy threads on the
 * host's four CPUs, and no thread start per request. 80% of requests
 * come from a pool set-up has warmed (hits); 20% carry a fresh seed
 * drawn from the workload seed (misses: simulate, encode, store). Hit
 * responses must be byte-identical to the warm-up responses; after
 * the timed part every miss is resubmitted and must come back as a
 * hit with the bytes it first streamed.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "replay.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/render.hh"
#include "service/socket.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace canon;
using service::SubmitBody;

namespace
{

constexpr int kClients = 4; //!< closed-loop connections (= nproc)
constexpr int kMaxActive = 3;
constexpr int kDaemonWorkers = 1;
/** Requests per client per pass: 1000 a pass, enough for its own p99. */
constexpr int kPerPass = 250;
constexpr int kMissesPerPass = 50; //!< 20% of kPerPass
constexpr int kPool = 8;           //!< warmed requests
constexpr int kSetups = 9;
constexpr int kTraceRounds = 3;

SubmitBody
request(int client, bool sddmm, std::uint64_t simSeed)
{
    SubmitBody b;
    b.client = client % 2 ? "tenant-b" : "tenant-a";
    b.priority = client % 2 ? 0 : 1;
    b.opt("workload", sddmm ? "sddmm" : "spmm")
        .opt("m", "128")
        .opt("k", "128")
        .opt("seed", std::to_string(simSeed))
        .sweep("sparsity", "0.8,0.85,0.9,0.95")
        .arch("all");
    return b;
}

SubmitBody
poolRequest(std::uint64_t variant, int j, int client = 0)
{
    return request(client, j % 2, 1 + variant * 1000 + j);
}

/** One client's next request: a pool index, or -1 for a miss. */
struct Draw
{
    int pool = -1;
    std::uint64_t missSeed = 0;
};

/**
 * The request sequence of one client: a deterministic stream from
 * (workload seed, client). Every pass holds exactly kMissesPerPass
 * misses at shuffled positions, so each pass offers the same load.
 * Miss seeds sit far above the pool's and are distinct across
 * clients and passes.
 */
class Mix
{
  public:
    Mix(std::uint64_t seed, int client)
        : rng_(seed * 7919 + static_cast<std::uint64_t>(client)),
          client_(client),
          base_(1'000'000 + (seed % 1'000'000) * 100'000)
    {
    }

    Draw next()
    {
        if (slot_ == kPerPass) {
            slot_ = 0;
            plan_.assign(kPerPass, false);
            std::fill_n(plan_.begin(), kMissesPerPass, true);
            std::shuffle(plan_.begin(), plan_.end(), rng_);
        }
        Draw d;
        if (plan_[slot_++])
            d.missSeed = base_ + misses_++ * kClients +
                         static_cast<std::uint64_t>(client_);
        else
            d.pool = static_cast<int>(rng_() % kPool);
        return d;
    }

  private:
    std::mt19937_64 rng_;
    int client_;
    std::uint64_t base_;
    std::uint64_t misses_ = 0;
    std::vector<bool> plan_;
    int slot_ = kPerPass;
};

/** What one submission returned. */
struct Reply
{
    bool ok = false; //!< transport ok, accepted, no failed scenarios
    std::string text;
    std::string cacheLine;
};

Reply
submitOnce(service::Client &c, const SubmitBody &body)
{
    Reply r;
    service::SubmitOutcome outcome;
    std::string error;
    const bool sent = c.submit(
        body, [&](std::size_t, const std::string &t) { r.text += t; },
        outcome, error);
    r.ok = sent && outcome.accepted && outcome.done.failures == 0 &&
           outcome.done.cancelled == 0;
    r.cacheLine = outcome.done.cacheLine;
    return r;
}

/**
 * The traced client: the same Submit exchange as service::Client,
 * spoken through the public framing calls so Accepted can be
 * timestamped. Spans: service.request > service.accept (Submit ->
 * Accepted), service.stream (Accepted -> Done).
 */
class TracedClient
{
  public:
    std::string connect(const std::string &path)
    {
        std::string error;
        fd_ = service::connectUnix(path, error);
        if (!fd_.valid())
            return error;
        const std::string hello =
            service::encodeKv({{"proto", service::kProtocolName}}, error);
        service::Frame reply;
        if (!service::sendFrame(fd_, {service::MsgType::Hello, hello}) ||
            service::readFrame(fd_, decoder_, reply, error) !=
                service::ReadStatus::Frame ||
            reply.type != service::MsgType::HelloAck)
            return "handshake failed " + error;
        return "";
    }

    Reply submit(Tracer &tr, const SubmitBody &body, std::uint64_t req)
    {
        Reply r;
        Span whole(tr, "service.request", req);
        std::string error;
        const std::string payload = service::encodeSubmit(body, error);
        if (!service::sendFrame(fd_, {service::MsgType::Submit, payload}))
            return r;
        std::optional<Span> phase;
        phase.emplace(tr, "service.accept", req);
        for (;;) {
            service::Frame f;
            if (service::readFrame(fd_, decoder_, f, error) !=
                service::ReadStatus::Frame)
                return r;
            switch (f.type) {
              case service::MsgType::Accepted:
                phase.reset();
                phase.emplace(tr, "service.stream", req);
                break;
              case service::MsgType::Result: {
                std::size_t index = 0;
                std::string text;
                if (!service::decodeResultFrame(f.payload, index, text,
                                                error))
                    return r;
                r.text += text;
                break;
              }
              case service::MsgType::Done: {
                service::DoneBody done;
                if (!service::decodeDone(f.payload, done, error))
                    return r;
                tr.sample("service.queue_wait_ms",
                          static_cast<double>(done.queueWaitUs) / 1e3);
                r.ok = done.failures == 0 && done.cancelled == 0;
                r.cacheLine = done.cacheLine;
                return r;
              }
              case service::MsgType::Rejected:
                tr.count("service.rejected");
                return r;
              default:
                return r;
            }
        }
    }

  private:
    service::Fd fd_;
    service::FrameDecoder decoder_;
};

bool
executedNone(const Reply &r)
{
    return r.cacheLine.find("simulation jobs executed: 0") !=
           std::string::npos;
}

/** A running daemon, its clients, and the warm pool's responses. */
struct Server
{
    std::unique_ptr<service::Daemon> daemon;
    std::vector<std::unique_ptr<service::Client>> clients;
    std::vector<std::string> poolText;
};

/** Results of one closed-loop pass. */
struct PassLog
{
    double wallS = 0.0;
    std::vector<double> latencyS;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::pair<SubmitBody, std::string>> misses;
};

/**
 * Every client submits kPerPass requests from its Mix, each after
 * the previous one's Done; the pass ends when all clients are done.
 * @p submit is the client call (plain or traced).
 */
template <typename SubmitFn>
PassLog
runPass(const Server &srv, std::vector<Mix> &mixes, std::uint64_t variant,
        const SubmitFn &submit)
{
    std::vector<PassLog> logs(kClients);
    const double t0 = nowS();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            PassLog &log = logs[c];
            for (int i = 0; i < kPerPass; ++i) {
                const Draw d = mixes[c].next();
                const SubmitBody body =
                    d.pool >= 0 ? poolRequest(variant, d.pool, c)
                                : request(c, d.missSeed % 2, d.missSeed);
                const double s0 = nowS();
                const Reply r = submit(c, body);
                log.latencyS.push_back(nowS() - s0);
                ++log.requests;
                bool good = r.ok;
                if (d.pool >= 0)
                    good = good && executedNone(r) &&
                           r.text == srv.poolText[d.pool];
                else
                    log.misses.emplace_back(body, r.text);
                if (!good) {
                    ++log.failed;
                    log.failures.push_back(
                        "request failed or differs: " + r.cacheLine);
                }
            }
        });
    for (auto &t : threads)
        t.join();
    PassLog all;
    all.wallS = nowS() - t0;
    for (PassLog &l : logs) {
        all.latencyS.insert(all.latencyS.end(), l.latencyS.begin(),
                            l.latencyS.end());
        all.requests += l.requests;
        all.failed += l.failed;
        all.failures.insert(all.failures.end(), l.failures.begin(),
                            l.failures.end());
        for (auto &m : l.misses)
            all.misses.push_back(std::move(m));
    }
    return all;
}

/** Start a daemon on a fresh cache directory and warm the pool. */
std::string
startServer(Server &srv, const std::string &dir, int index,
            std::uint64_t variant)
{
    service::DaemonConfig cfg;
    // Relative to the run's working directory: Unix socket paths
    // are limited to about a hundred bytes.
    cfg.socketPath = "canond" + std::to_string(index) + ".sock";
    cfg.jobs = kDaemonWorkers;
    cfg.cacheDir = dir;
    cfg.maxActive = kMaxActive;
    srv.daemon = std::make_unique<service::Daemon>(cfg);
    if (std::string err = srv.daemon->start(); !err.empty())
        return "daemon start: " + err;
    srv.clients.clear();
    for (int c = 0; c < kClients; ++c) {
        srv.clients.push_back(std::make_unique<service::Client>());
        if (std::string err = srv.clients.back()->connect(cfg.socketPath);
            !err.empty())
            return "connect: " + err;
    }
    srv.poolText.clear();
    for (int j = 0; j < kPool; ++j) {
        const Reply r =
            submitOnce(*srv.clients[j % kClients], poolRequest(variant, j));
        if (!r.ok)
            return "warm-up request " + std::to_string(j) + " failed";
        srv.poolText.push_back(r.text);
    }
    return "";
}

std::string
stopServer(Server &srv)
{
    for (auto &c : srv.clients)
        c->close();
    srv.clients.clear();
    const int rc = srv.daemon->stop();
    srv.daemon.reset();
    return rc == 0 ? "" : "daemon did not drain cleanly";
}

/**
 * The daemon-side work of a few requests, replayed through public
 * calls (replayScenarios), then each scenario's response rendered.
 */
void
replayDaemonSide(Tracer &tr, service::Daemon &d,
                 const std::vector<SubmitBody> &bodies,
                 const std::string &freshDir)
{
    for (const SubmitBody &body : bodies)
        for (const runner::ScenarioResult &r :
             replayScenarios(tr, d.engine(), service::requestFromSubmit(body),
                             freshDir, false)) {
            Span s(tr, "engine.render");
            service::renderScenarioText(r);
        }
}

} // namespace

Outcome
runServiceMix(const Context &ctx)
{
    Outcome out;
    Checker &check = *ctx.check;
    const std::uint64_t variant = ctx.seed % kVariants;
    const std::string v = std::to_string(variant);

    // Set-up: start a daemon on a fresh cache and warm the pool,
    // kSetups times; the last server stays up for the timed part.
    Server srv;
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        if (srv.daemon)
            check.require(stopServer(srv).empty(), "set-up daemon drain");
        const double t0 = nowS();
        const std::string err = startServer(
            srv, ctx.workDir + "/cache" + std::to_string(i), i, variant);
        setupS.push_back(nowS() - t0);
        out.attempted += kPool;
        if (!check.require(err.empty(), "service set-up: " + err)) {
            out.failed += kPool;
            if (srv.daemon)
                stopServer(srv);
            return out;
        }
        std::string all;
        for (const std::string &t : srv.poolText)
            all += t;
        if (!check.expect("service_mix.responses." + v, digest(all)))
            ++out.failed;
    }

    // The warm pool's simulated-cycle total, read back through the
    // daemon's own engine (all hits now).
    std::uint64_t poolCycles = 0;
    for (int j = 0; j < kPool; ++j) {
        const engine::ResultSet rs = srv.daemon->engine().run(
            service::requestFromSubmit(poolRequest(variant, j)));
        for (const auto &r : rs.scenarios())
            poolCycles += totalCycles(r.cases);
    }
    if (!check.expect("service_mix.cycles." + v, std::to_string(poolCycles)))
        ++out.failed;

    std::vector<Mix> mixes;
    for (int c = 0; c < kClients; ++c)
        mixes.emplace_back(ctx.seed, c);

    auto account = [&](const PassLog &log) {
        out.attempted += log.requests;
        out.failed += log.failed;
        for (const std::string &f : log.failures)
            check.require(false, f);
    };

    if (ctx.trace) {
        std::vector<TracedClient> tcs(kClients);
        for (int c = 0; c < kClients; ++c)
            if (!check.require(
                    tcs[c].connect(srv.daemon->config().socketPath).empty(),
                    "traced client connect")) {
                ++out.failed;
                stopServer(srv);
                return out;
            }
        // Untraced and traced passes alternate; the last traced one
        // gives the per-layer figures.
        std::atomic<std::uint64_t> next{1};
        auto via = [&](Tracer &t) {
            return [&](int c, const SubmitBody &b) {
                return tcs[c].submit(t, b, next++);
            };
        };
        std::vector<double> base, traced;
        std::unique_ptr<Tracer> tr;
        for (int i = 0; i < kTraceRounds; ++i) {
            Tracer off(false);
            const PassLog b = runPass(srv, mixes, variant, via(off));
            tr = std::make_unique<Tracer>(true);
            const PassLog t = runPass(srv, mixes, variant, via(*tr));
            account(b);
            account(t);
            base.push_back(b.wallS);
            traced.push_back(t.wallS);
        }

        // Daemon-side split of the pool plus a few fresh misses.
        std::vector<SubmitBody> bodies;
        for (int j = 0; j < kPool; ++j)
            bodies.push_back(poolRequest(variant, j));
        for (int i = 0; i < 2; ++i)
            bodies.push_back(request(0, i % 2, 900'000 + variant * 10 + i));
        replayDaemonSide(*tr, *srv.daemon, bodies, ctx.workDir + "/replay");
        addPerLayer(out, *tr, traced.back(), median(traced) / median(base));
        tr->writeJson(ctx.traceOut);
        check.require(stopServer(srv).empty(), "daemon drain");
        return out;
    }

    Timed timed;
    std::vector<std::pair<SubmitBody, std::string>> misses;
    auto plain = [&](int c, const SubmitBody &b) {
        return submitOnce(*srv.clients[c], b);
    };
    const double start = nowS();
    do {
        PassLog log = runPass(srv, mixes, variant, plain);
        account(log);
        timed.requests += log.requests;
        timed.addPass(log.wallS, std::move(log.latencyS));
        for (auto &m : log.misses)
            misses.push_back(std::move(m));
    } while (timed.another(start, ctx.seconds));

    // Every miss was stored: resubmitting it is a hit with the same
    // bytes.
    for (const auto &[body, text] : misses) {
        const Reply r = submitOnce(*srv.clients[0], body);
        out.attempted += 1;
        if (!check.require(r.ok && executedNone(r) && r.text == text,
                           "miss not served back from the cache"))
            ++out.failed;
    }
    if (!check.require(stopServer(srv).empty(), "daemon drain"))
        ++out.failed;

    addEndToEnd(out, "service_mix", timed, median(setupS));
    return out;
}

} // namespace perfbench
