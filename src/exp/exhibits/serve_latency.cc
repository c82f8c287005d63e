/**
 * @file
 * Serving-stack latency/throughput exhibit: the harmoniad micro-batcher
 * measured in-process.
 *
 * Replays the load pattern tools/harmonia_client generates — windows
 * of concurrent `evaluate` requests that target the same (kernel,
 * iteration) with disjoint config slices — through Service twice: once
 * with micro-batching enabled (one factored lattice run per window)
 * and once disabled (one run per request). Both paths produce
 * byte-identical responses; the difference is purely how often the
 * lattice evaluator's per-invocation hoist is paid. Reports requests/s,
 * the service-side p50/p99 evaluate latency, and the batched/unbatched
 * speedup.
 *
 * The second half measures the real transport: an in-process harmoniad
 * reactor on an ephemeral TCP port, driven by N closed-loop loopback
 * clients (1/16/64/128). Concurrent clients' same-(kernel, iteration)
 * requests land in one coalescing window, fuse into shared lattice
 * runs across connections, and the table reports the end-to-end
 * client-side throughput and p50/p99 against the single-connection
 * baseline. On a 4-core host (Release build) one client sees a
 * ~0.1 ms p50 at 8–10k req/s — service time plus a few-microsecond
 * coalescing window — and 64 clients reach 2.3–3.2x that throughput
 * (23–25k req/s) by fusing their requests into shared lattice runs.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/serve/service.hh"

namespace harmonia::exp
{
namespace
{

using serve::JsonValue;
using serve::Service;
using serve::ServiceOptions;
using serve::Verb;

/** Requests per window (concurrent clients the batcher can fuse). */
constexpr int kClients = 16;

/** Lattice points per request — a governor-style candidate set (the
 * current config plus its lattice neighbours). Small lists are where
 * batching pays: unbatched, each request re-pays the lattice
 * evaluator's per-invocation work (the config-invariant bundle, the
 * axis entries it shares with the other requests, the run setup) for
 * just a handful of points. */
constexpr int kConfigsPerClient = 4;

/** One window of evaluate request lines: @p clients requests against
 * the same (kernel, iteration), each holding a disjoint slice of the
 * 448-point lattice. */
std::vector<std::string>
makeWindow(const ConfigSweep &sweep, const std::string &kernelId,
           int iteration, int clients)
{
    const std::vector<HardwareConfig> &configs = sweep.configs();
    std::vector<std::string> lines;
    lines.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        JsonValue cfgs = JsonValue::array();
        const size_t begin = c * kConfigsPerClient;
        const size_t end = begin + kConfigsPerClient;
        for (size_t i = begin; i < end; ++i)
            cfgs.push(serve::configToJson(configs[i % configs.size()]));
        JsonValue req = JsonValue::object({
            {"schema", JsonValue(serve::kRequestSchema)},
            {"id", JsonValue(static_cast<int64_t>(c))},
            {"verb", JsonValue("evaluate")},
            {"kernel", JsonValue(kernelId)},
            {"iteration", JsonValue(iteration)},
            {"configs", std::move(cfgs)},
        });
        lines.push_back(req.dump());
    }
    return lines;
}

struct LoadResult
{
    std::string mode;
    size_t requests = 0;
    double seconds = 0.0;
    uint64_t latticeRuns = 0;
    double p50Us = 0.0;
    double p99Us = 0.0;

    double requestsPerSec() const
    {
        return seconds > 0.0 ? requests / seconds : 0.0;
    }
};

/** Drive @p windows of the client load pattern through one Service. */
LoadResult
drive(ExpContext &ctx, bool batching, int windows)
{
    ServiceOptions opt;
    opt.batching = batching;
    Service service(opt);

    const std::vector<Application> &apps = ctx.suite();
    std::vector<std::pair<std::string, int>> invocations;
    int iteration = 0;
    while (static_cast<int>(invocations.size()) < windows) {
        for (const Application &app : apps) {
            for (const KernelProfile &k : app.kernels) {
                if (static_cast<int>(invocations.size()) >= windows)
                    break;
                invocations.emplace_back(k.id(), iteration);
            }
        }
        ++iteration;
    }

    LoadResult r;
    r.mode = batching ? "batched" : "unbatched";

    const auto start = std::chrono::steady_clock::now();
    for (const auto &[kernelId, iter] : invocations) {
        const std::vector<std::string> lines =
            makeWindow(service.sweep(), kernelId, iter, kClients);
        r.requests += service.processBatch(lines).size();
    }
    const auto stop = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(stop - start).count();
    r.latticeRuns = service.metrics().latticeRuns();
    const serve::LatencyStats &lat =
        service.metrics().verb(Verb::Evaluate).latency;
    r.p50Us = lat.percentileMicros(50.0);
    r.p99Us = lat.percentileMicros(99.0);
    return r;
}

/** One TCP fan-in measurement: N closed-loop clients. */
struct FanInResult
{
    int clients = 0;
    size_t requests = 0;
    double seconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t latticeRuns = 0;
    uint64_t crossConnRuns = 0;

    double requestsPerSec() const
    {
        return seconds > 0.0 ? requests / seconds : 0.0;
    }
};

/** Connect one blocking loopback TCP client to @p port. */
int
connectLoopback(int port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Read one newline-terminated reply (blocking). */
bool
readLine(int fd, std::string &carry, std::string &line)
{
    while (true) {
        const size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            line = carry.substr(0, nl);
            carry.erase(0, nl + 1);
            return true;
        }
        char buf[8192];
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        carry.append(buf, static_cast<size_t>(n));
    }
}

/**
 * Drive @p totalRequests closed-loop evaluate requests through an
 * in-process TCP reactor from @p clients concurrent connections.
 * Every round, all clients request the same (kernel, iteration) with
 * disjoint config slices — the daemon's cross-connection micro-batcher
 * fuses each round into shared lattice runs. Latency is end-to-end
 * client-side (send to reply-parsed); one unmeasured warm-up round
 * seeds the adaptive window.
 */
FanInResult
fanIn(ExpContext &ctx, int clients, int totalRequests)
{
    using Clock = std::chrono::steady_clock;

    Service service(ServiceOptions{});

    serve::ServerOptions sopt;
    sopt.tcpBind = "127.0.0.1:0";
    sopt.maxConnections = clients + 8;
    serve::Server server(service, sopt);

    // The reactor narrates on stderr (listen line, drain snapshot);
    // keep the bench output clean. The server thread only writes
    // inside run(), which this scope brackets.
    std::ostringstream sink;
    std::streambuf *cerrBuf = std::cerr.rdbuf(sink.rdbuf());
    FanInResult r;
    r.clients = clients;
    if (!server.start().ok()) {
        std::cerr.rdbuf(cerrBuf);
        return r;
    }
    std::thread reactor([&server] { server.run(); });

    std::vector<int> fds;
    std::vector<std::string> carries(static_cast<size_t>(clients));
    bool transportOk = true;
    for (int c = 0; c < clients; ++c) {
        const int fd = connectLoopback(server.tcpPort());
        if (fd < 0) {
            transportOk = false;
            break;
        }
        fds.push_back(fd);
    }

    const std::vector<Application> &apps = ctx.suite();
    std::vector<std::string> kernelIds;
    for (const Application &app : apps)
        for (const KernelProfile &k : app.kernels)
            kernelIds.push_back(k.id());

    const int rounds =
        std::max(1, totalRequests / std::max(1, clients));
    std::vector<double> latenciesMs;
    latenciesMs.reserve(static_cast<size_t>(rounds) * clients);
    std::vector<Clock::time_point> sentAt(
        static_cast<size_t>(clients));
    Clock::time_point measureStart;

    // Round -1 is the unmeasured warm-up.
    for (int round = -1; transportOk && round < rounds; ++round) {
        if (round == 0)
            measureStart = Clock::now();
        const std::string &kernelId =
            kernelIds[static_cast<size_t>(round + 1) %
                      kernelIds.size()];
        const std::vector<std::string> lines = makeWindow(
            service.sweep(), kernelId, round + 1, clients);
        for (int c = 0; c < clients && transportOk; ++c) {
            sentAt[static_cast<size_t>(c)] = Clock::now();
            transportOk = sendAll(fds[static_cast<size_t>(c)],
                                  lines[static_cast<size_t>(c)] +
                                      "\n");
        }
        for (int c = 0; c < clients && transportOk; ++c) {
            std::string reply;
            transportOk =
                readLine(fds[static_cast<size_t>(c)],
                         carries[static_cast<size_t>(c)], reply);
            if (transportOk && round >= 0) {
                latenciesMs.push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() -
                        sentAt[static_cast<size_t>(c)])
                        .count());
            }
        }
    }
    r.requests = latenciesMs.size();
    r.seconds = r.requests > 0
                    ? std::chrono::duration<double>(Clock::now() -
                                                    measureStart)
                          .count()
                    : 0.0;

    // One shutdown verb stops the reactor; it drains and returns.
    if (!fds.empty()) {
        sendAll(fds.front(),
                std::string("{\"schema\":\"") +
                    serve::kRequestSchema +
                    "\",\"id\":\"bye\",\"verb\":\"shutdown\"}\n");
        std::string reply;
        readLine(fds.front(), carries.front(), reply);
    }
    reactor.join();
    for (const int fd : fds)
        close(fd);
    std::cerr.rdbuf(cerrBuf);

    std::sort(latenciesMs.begin(), latenciesMs.end());
    auto pct = [&](double p) {
        if (latenciesMs.empty())
            return 0.0;
        const size_t idx = static_cast<size_t>(
            p / 100.0 * (latenciesMs.size() - 1) + 0.5);
        return latenciesMs[std::min(idx, latenciesMs.size() - 1)];
    };
    r.p50Ms = pct(50.0);
    r.p99Ms = pct(99.0);
    r.latticeRuns = service.metrics().latticeRuns();
    r.crossConnRuns = service.metrics().crossConnRuns();
    return r;
}

class ServeLatency final : public Experiment
{
  public:
    std::string name() const override { return "serve_latency"; }
    std::string description() const override
    {
        return "harmoniad micro-batcher throughput/latency vs the "
               "batching-disabled path";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 280; }

    void run(ExpContext &ctx) const override
    {
        const int windows = std::max(8, ctx.options().benchReps * 8);
        ctx.banner("serve_latency",
                   "Serving-stack load test: windows of " +
                       std::to_string(kClients) +
                       " concurrent evaluate requests, micro-batched "
                       "vs one lattice run per request.");

        std::vector<LoadResult> runs; // [0] unbatched, [1] batched.
        for (const bool batching : {false, true}) {
            drive(ctx, batching, 2); // Warm-up.
            runs.push_back(drive(ctx, batching, windows));
        }

        TextTable table({"mode", "requests", "lattice runs", "req/s",
                         "p50 (us)", "p99 (us)"});
        for (const LoadResult &r : runs) {
            table.row()
                .cell(r.mode)
                .numInt(static_cast<long long>(r.requests))
                .numInt(static_cast<long long>(r.latticeRuns))
                .cell(formatNum(r.requestsPerSec(), 0))
                .cell(formatNum(r.p50Us, 1))
                .cell(formatNum(r.p99Us, 1));
        }
        ctx.emit(table, "Evaluate throughput: micro-batched vs not",
                 "serve_latency");

        const double speedup =
            runs[0].requestsPerSec() > 0.0
                ? runs[1].requestsPerSec() / runs[0].requestsPerSec()
                : 0.0;

        ctx.out() << "\nmicro-batch speedup: " << formatNum(speedup, 2)
                  << "x\n";

        // The real transport: TCP fan-in through the reactor,
        // closed-loop clients, fixed total request count so every row
        // does the same work.
        const int fanInRequests = 256;
        std::vector<FanInResult> fanRuns;
        for (const int clients : {1, 16, 64, 128})
            fanRuns.push_back(fanIn(ctx, clients, fanInRequests));

        const double base = fanRuns.front().requestsPerSec();
        TextTable fanTable({"clients", "requests", "req/s",
                            "p50 (ms)", "p99 (ms)", "lattice runs",
                            "x-conn runs", "speedup"});
        for (const FanInResult &r : fanRuns) {
            fanTable.row()
                .numInt(r.clients)
                .numInt(static_cast<long long>(r.requests))
                .cell(formatNum(r.requestsPerSec(), 0))
                .cell(formatNum(r.p50Ms, 3))
                .cell(formatNum(r.p99Ms, 3))
                .numInt(static_cast<long long>(r.latticeRuns))
                .numInt(static_cast<long long>(r.crossConnRuns))
                .cell(base > 0.0
                          ? formatNum(r.requestsPerSec() / base, 2) +
                                "x"
                          : "-");
        }
        ctx.emit(fanTable,
                 "TCP fan-in: N closed-loop clients vs one",
                 "serve_tcp_fanin");

        double fanSpeedup64 = 0.0;
        for (const FanInResult &r : fanRuns) {
            if (r.clients == 64 && base > 0.0)
                fanSpeedup64 = r.requestsPerSec() / base;
        }
        ctx.out() << "tcp fan-in speedup at 64 clients: "
                  << formatNum(fanSpeedup64, 2) << "x\n";

        TextTable summary({"metric", "value"});
        summary.row().cell("clients per window").numInt(kClients);
        summary.row().cell("windows per mode").numInt(windows);
        summary.row().cell("micro-batch speedup").num(speedup, 3);
        summary.row()
            .cell("tcp fan-in speedup at 64 clients")
            .num(fanSpeedup64, 3);
        ctx.emit(summary, "serve_latency summary",
                 "serve_latency_summary");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ServeLatency)

} // namespace harmonia::exp
