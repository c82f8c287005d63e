/**
 * @file
 * Serving-stack latency/throughput exhibit: where one request's time
 * goes, and what the reactor delivers to many clients.
 *
 * A stage split first: governor-style 8-config evaluates taken apart
 * in process into request parse, lattice run and reply encode, next
 * to Service::processLine, timed interleaved over a rotation of 512
 * distinct (kernel, iteration, slice) requests; the table is the
 * median round. Figures for a 4-core host are in docs/SERVING.md
 * ("Parsing").
 *
 * Then the real transport: an in-process harmoniad reactor on an
 * ephemeral TCP port, driven by N closed-loop loopback clients
 * (1/16/64/128), each sending its own 8-config evaluates. The table
 * reports end-to-end client-side req/s and p50/p99, and each row's
 * req/s against one client's.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
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
#include "harmonia/common/error.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/serve/service.hh"

namespace harmonia::exp
{
namespace
{

using serve::Service;
using serve::ServiceOptions;

/** Lattice points per request: a governor slice (the current
 * config plus its lattice neighbours). */
constexpr size_t kSliceConfigs = 8;

/** One evaluate request line with id @p id for lattice slots
 * [@p begin, @p begin + @p count) (wrapping) of @p sweep. */
std::string
makeRequest(const ConfigSweep &sweep, const std::string &kernelId,
            int iteration, int id, size_t begin, size_t count)
{
    const std::vector<HardwareConfig> &configs = sweep.configs();
    serve::JsonWriter w;
    w.beginObject().key("schema").string(serve::kRequestSchema);
    w.key("id").integer(id);
    w.key("verb").string("evaluate");
    w.key("kernel").string(kernelId);
    w.key("iteration").integer(iteration);
    w.key("configs").beginArray();
    for (size_t i = begin; i < begin + count; ++i)
        serve::writeConfig(w, configs[i % configs.size()]);
    return w.endArray().endObject().take();
}

/** Distinct governor-slice evaluates in one timing round. */
constexpr size_t kRotation = 512;

/** One round's per-request µs of each stage, averaged over the
 * rotation. */
struct StageSplit
{
    double parseUs = 0.0;
    double latticeUs = 0.0;
    double encodeUs = 0.0;
    double doublesUs = 0.0; ///< The reply's doubles alone, re-formatted.
    double requestUs = 0.0; ///< Service::processLine, whole request.
};

/**
 * Time the stages of @p rounds rounds over kRotation distinct
 * (kernel, iteration, slice) evaluates, and return the median round
 * (by whole-request time). Within a round, each step runs one request
 * through Service::processLine and another, half a rotation away,
 * stage by stage: parse the line, run the lattice over its sorted
 * unique slots, encode the reply, then format the reply's doubles
 * again through JsonWriter::number alone (the share of the encode
 * that goes to numbers). Either way a request was last touched half a
 * round earlier, so the stage sum and the whole request are
 * comparable; no row is clamped. Both append to buffers that persist
 * across requests, as the reactor's connection buffer does. Every
 * staged reply must equal processLine's byte for byte.
 */
StageSplit
splitStages(ExpContext &ctx, int rounds, size_t &responseBytes)
{
    using Clock = std::chrono::steady_clock;
    const auto micros = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
    };

    Service service;
    const ConfigSweep &sweep = service.sweep();
    std::vector<const KernelProfile *> kernels;
    for (const Application &app : ctx.suite())
        for (const KernelProfile &k : app.kernels)
            kernels.push_back(&k);
    std::vector<std::string> lines;
    std::vector<const KernelProfile *> lineKernel;
    for (size_t i = 0; i < kRotation; ++i) {
        const KernelProfile *kernel = kernels[i % kernels.size()];
        lineKernel.push_back(kernel);
        lines.push_back(makeRequest(
            sweep, kernel->id(), static_cast<int>(i / kernels.size() % 8),
            static_cast<int>(i), i * 61 % sweep.configs().size(),
            kSliceConfigs));
    }

    StageSplit round;
    serve::Request req;
    std::vector<uint32_t> slots, rows;
    std::vector<KernelResult> points;
    std::vector<double> numbers;
    std::string doubles;
    // One request stage by stage into @p reply, adding its µs to
    // `round`.
    const auto staged = [&](size_t i, std::string &reply) {
        reply.clear();
        const auto t0 = Clock::now();
        const Status parsed = serve::parseRequest(lines[i], req, nullptr);
        const auto t1 = Clock::now();
        fatalIf(!parsed.ok(), "serve_latency: ", parsed.str());
        serve::evaluateSlots(sweep, req.evaluate, slots, rows);
        const auto t2 = Clock::now();
        sweep.run(*lineKernel[i], req.evaluate.iteration, slots, points);
        const auto t3 = Clock::now();
        serve::evaluateResponse(reply, req.id, req.evaluate, sweep, rows,
                                points.data());
        const auto t4 = Clock::now();
        numbers.clear();
        for (const uint32_t row : rows) {
            const KernelResult &r = points[row];
            numbers.insert(numbers.end(),
                           {r.time(), r.power.total(), r.cardEnergy,
                            r.gpuEnergy, r.memEnergy, r.ed2()});
        }
        doubles.clear();
        const auto t5 = Clock::now();
        {
            serve::JsonWriter w(doubles, 32 * numbers.size());
            w.beginArray();
            for (const double d : numbers)
                w.number(d);
            w.endArray();
        }
        const auto t6 = Clock::now();
        round.parseUs += micros(t0, t1);
        round.latticeUs += micros(t2, t3);
        round.encodeUs += micros(t3, t4);
        round.doublesUs += micros(t5, t6);
    };

    responseBytes = 0;
    std::string reply, whole;
    for (size_t i = 0; i < kRotation; ++i) {
        staged(i, reply);
        fatalIf(reply != service.processLine(lines[i]),
                "serve_latency: staged reply differs from processLine");
        responseBytes += reply.size();
    }
    responseBytes /= kRotation;

    size_t sink = 0; // Keeps every timed call observable.
    std::vector<StageSplit> done;
    for (int r = 0; r < rounds; ++r) {
        round = StageSplit{};
        for (size_t k = 0; k < kRotation; ++k) {
            whole.clear();
            const auto t0 = Clock::now();
            service.processLine(lines[k], whole);
            round.requestUs += micros(t0, Clock::now());
            staged((k + kRotation / 2) % kRotation, reply);
            sink += whole.size() + reply.size() + doubles.size();
        }
        for (double *us : {&round.parseUs, &round.latticeUs,
                           &round.encodeUs, &round.doublesUs,
                           &round.requestUs})
            *us /= kRotation;
        done.push_back(round);
    }
    fatalIf(sink == 0, "serve_latency: empty stage results");
    std::sort(done.begin(), done.end(),
              [](const StageSplit &a, const StageSplit &b) {
                  return a.requestUs < b.requestUs;
              });
    return done[done.size() / 2];
}

/** One TCP fan-in measurement: N closed-loop clients. */
struct FanInResult
{
    int clients = 0;
    size_t requests = 0;
    double seconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;

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
 * Every round, each client sends one 8-config slice of its own
 * kernel. Latency is end-to-end client-side (send to reply-parsed);
 * one unmeasured warm-up round comes first.
 */
FanInResult
fanIn(ExpContext &ctx, int clients, int totalRequests)
{
    using Clock = std::chrono::steady_clock;

    Service service(ServiceOptions{});

    serve::ServerOptions sopt;
    sopt.tcpBind = "127.0.0.1:0";
    sopt.maxConnections = clients + 8;
    // No listen line or drain snapshot in the bench output.
    sopt.quiet = true;
    serve::Server server(sopt);

    FanInResult r;
    r.clients = clients;
    if (!server.start().ok())
        return r;
    std::thread reactor([&] { server.run(service); });

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
        for (int c = 0; c < clients && transportOk; ++c) {
            const std::string line = makeRequest(
                service.sweep(),
                kernelIds[static_cast<size_t>(c) % kernelIds.size()],
                round + 1, c, static_cast<size_t>(c) * kSliceConfigs,
                kSliceConfigs);
            sentAt[static_cast<size_t>(c)] = Clock::now();
            transportOk =
                sendAll(fds[static_cast<size_t>(c)], line + "\n");
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
    return r;
}

class ServeLatency final : public Experiment
{
  public:
    std::string name() const override { return "serve_latency"; }
    std::string description() const override
    {
        return "harmoniad request stages and TCP fan-in "
               "throughput/latency";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 280; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("serve_latency",
                   "Serving stack: one " +
                       std::to_string(kSliceConfigs) +
                       "-config evaluates stage by stage, then N "
                       "closed-loop TCP clients.");

        // The stages of a rotation of distinct requests (a timing
        // artifact: its values vary run to run).
        size_t responseBytes = 0;
        const StageSplit split = splitStages(
            ctx, 2 * ctx.options().benchReps + 1, responseBytes);
        const double stageSum =
            split.parseUs + split.latticeUs + split.encodeUs;
        TextTable stageTable({"stage", "us per request",
                              "share of request"});
        const auto stageRow = [&](const std::string &stage, double us) {
            stageTable.row()
                .cell(stage)
                .cell(formatNum(us, 2))
                .cell(formatNum(100.0 * us / split.requestUs, 0) + "%");
        };
        stageRow("parse request", split.parseUs);
        stageRow("lattice run", split.latticeUs);
        stageRow("encode reply, but its doubles",
                 split.encodeUs - split.doublesUs);
        stageRow("format doubles (JsonWriter::number)", split.doublesUs);
        stageRow("rest (validate, dedup, bookkeeping)",
                 split.requestUs - stageSum);
        stageRow("processLine (whole request)", split.requestUs);
        ctx.emit(stageTable,
                 std::to_string(kRotation) + " distinct " +
                     std::to_string(kSliceConfigs) +
                     "-config evaluates, stage by stage, median round (" +
                     std::to_string(responseBytes) + "-byte replies)",
                 "serve_stages");

        // The real transport: TCP fan-in through the reactor,
        // closed-loop clients, fixed total request count so every row
        // does the same work.
        const int fanInRequests = 256;
        std::vector<FanInResult> fanRuns;
        for (const int clients : {1, 16, 64, 128})
            fanRuns.push_back(fanIn(ctx, clients, fanInRequests));

        const double base = fanRuns.front().requestsPerSec();
        TextTable fanTable({"clients", "requests", "req/s",
                            "p50 (ms)", "p99 (ms)", "vs 1 client"});
        for (const FanInResult &r : fanRuns) {
            fanTable.row()
                .numInt(r.clients)
                .numInt(static_cast<long long>(r.requests))
                .cell(formatNum(r.requestsPerSec(), 0))
                .cell(formatNum(r.p50Ms, 3))
                .cell(formatNum(r.p99Ms, 3))
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
