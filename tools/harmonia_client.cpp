/**
 * @file
 * harmonia_client — load generator and latency reporter for harmoniad.
 *
 * Connects to a running daemon over its Unix-domain socket or TCP
 * listener — with --clients N, over N concurrent connections —
 * generates a deterministic request stream (mixed verbs or pure
 * evaluate), sends it open-loop at a configurable arrival rate — send
 * times follow the schedule regardless of response progress, like real
 * concurrent clients — and reports client-side latency percentiles,
 * throughput, and the error-reply count. Requests are dealt
 * round-robin across the connections. Each request names its own
 * (kernel, iteration): request i runs kernel i mod M at iteration
 * i / M, like a governor stepping through M kernels.
 *
 * Usage:
 *   harmonia_client (--socket PATH | --tcp HOST:PORT) [options]
 *
 *   --clients N      Concurrent connections to spread the load over
 *                    (default 1).
 *   --requests N     Requests to send (default 100).
 *   --rate R         Open-loop arrival rate, requests/second
 *                    (0 = send everything immediately; default 0).
 *   --mix MODE       "evaluate" (default) or "mixed"
 *                    (evaluate/sweep/govern/ping blend).
 *   --configs K      Lattice points per evaluate request (default 8).
 *   --kernels M      Distinct kernels to spread requests over
 *                    (default 4).
 *   --device NAME    Tag requests with a registered device profile
 *                    (repeatable). One name sends the whole stream to
 *                    that device; several deal requests across them
 *                    round-robin — a mixed-device replay that
 *                    exercises the daemon's per-device state
 *                    (visible under "devices" in --stats). Configs are drawn from each named
 *                    device's own lattice. Default: no device field
 *                    (the daemon's default device).
 *   --governor NAME  Governor for govern requests (default baseline —
 *                    keeps the smoke test free of training cost).
 *   --seed N         Workload RNG seed (default 1).
 *   --stats          Fetch and print the daemon stats snapshot at the
 *                    end.
 *   --shutdown       Send a shutdown request after the load.
 *   --quiet          Only print the summary line.
 *
 * Exit status: 0 when every request got an ok reply, 1 when any error
 * reply or transport failure occurred (a daemon that closes the
 * connection mid-stream is reported, not a SIGPIPE death), 2 on a
 * usage error.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harmonia/harmonia.hh"
#include "harmonia/serve/json_tree.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

struct ClientOptions
{
    std::string socketPath;
    std::string tcpAddr; ///< "HOST:PORT"; empty = Unix socket.
    int clients = 1;
    int requests = 100;
    double rate = 0.0;
    std::string mix = "evaluate";
    int configsPerRequest = 8;
    int kernels = 4;
    std::vector<std::string> devices; ///< Empty = no device field.
    std::string governor = "baseline";
    uint64_t seed = 1;
    bool stats = false;
    bool shutdown = false;
    bool quiet = false;
};

[[noreturn]] void
usage(int status)
{
    std::cout << "usage: harmonia_client (--socket PATH | --tcp "
                 "HOST:PORT) [--clients N]\n"
                 "                       [--requests N] [--rate R] "
                 "[--mix evaluate|mixed]\n"
                 "                       [--configs K] [--kernels M] "
                 "[--device NAME]... [--governor NAME]\n"
                 "                       [--seed N] [--stats] "
                 "[--shutdown] [--quiet]\n";
    std::exit(status);
}

/** splitmix64: deterministic, seedable, no <random> state to drag. */
uint64_t
nextRand(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One device's request vocabulary: its name tag + lattice axes. */
struct DeviceLattice
{
    std::string name; ///< "device" field value; empty = omit.
    std::vector<int> cuValues{4, 8, 12, 16, 20, 24, 28, 32};
    std::vector<int> computeValues{300, 400, 500, 600,
                                   700, 800, 900, 1000};
    std::vector<int> memValues{475, 625, 775, 925, 1075, 1225, 1375};
};

struct Workload
{
    std::vector<std::string> kernelIds;
    std::vector<DeviceLattice> devices; ///< >= 1 entry.
};

/** Axis values for one registered device, from its own lattice. */
DeviceLattice
latticeFor(const std::string &name)
{
    const Result<DeviceProfile> profile =
        DeviceRegistry::instance().profile(name);
    if (!profile.ok()) {
        std::cerr << "harmonia_client: " << profile.status().message()
                  << '\n';
        std::exit(2);
    }
    const ConfigSpace space(profile.value().config);
    DeviceLattice lattice;
    lattice.name = profile.value().name;
    lattice.cuValues = space.values(Tunable::CuCount);
    lattice.computeValues = space.values(Tunable::ComputeFreq);
    lattice.memValues = space.values(Tunable::MemFreq);
    return lattice;
}

void
writeRandomConfig(JsonWriter &w, const DeviceLattice &d, uint64_t &rng)
{
    w.beginObject();
    w.key("cu").integer(d.cuValues[nextRand(rng) % d.cuValues.size()]);
    w.key("compute_mhz")
        .integer(d.computeValues[nextRand(rng) % d.computeValues.size()]);
    w.key("mem_mhz").integer(d.memValues[nextRand(rng) % d.memValues.size()]);
    w.endObject();
}

std::string
makeRequest(const ClientOptions &opt, Workload &w, uint64_t &rng,
            int index)
{
    JsonWriter req;
    req.beginObject().key("schema").string(kRequestSchema);
    req.key("id").integer(index);

    // Requests deal round-robin across the --device list and the
    // kernels; each kernel's iteration advances once per pass.
    const auto slot = static_cast<size_t>(index);
    const DeviceLattice &device = w.devices[slot % w.devices.size()];
    const std::string &kernel = w.kernelIds[slot % w.kernelIds.size()];
    const int iteration = index / static_cast<int>(w.kernelIds.size());
    if (!device.name.empty())
        req.key("device").string(device.name);

    // Mixed traffic: mostly evaluates, a sprinkling of everything
    // else.
    int lane = 0; // evaluate
    if (opt.mix == "mixed") {
        const uint64_t roll = nextRand(rng) % 10;
        lane = roll < 6 ? 0 : (roll < 7 ? 1 : (roll < 9 ? 2 : 3));
    }

    if (lane == 0) {
        req.key("verb").string("evaluate");
        req.key("kernel").string(kernel);
        req.key("iteration").integer(iteration);
        req.key("configs").beginArray();
        for (int c = 0; c < opt.configsPerRequest; ++c)
            writeRandomConfig(req, device, rng);
        req.endArray();
    } else if (lane == 1) {
        req.key("verb").string("sweep");
        req.key("kernel").string(kernel);
        req.key("iteration").integer(0);
        req.key("objective").string("min_ed2");
        req.key("top").integer(3);
    } else if (lane == 2) {
        req.key("verb").string("govern");
        // Sessions are device-bound: qualify the name so the same
        // slot on two devices never collides into a binding error.
        std::string session = "load-" + std::to_string(index % 4);
        if (!device.name.empty())
            session += "@" + device.name;
        req.key("session").string(session);
        req.key("governor").string(opt.governor);
        req.key("kernel").string(kernel);
        req.key("iteration").integer(index);
    } else {
        req.key("verb").string("ping");
    }
    return req.endObject().take();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

ClientOptions
parseArgs(int argc, char **argv)
{
    ClientOptions opt;
    auto value = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "harmonia_client: " << flag
                      << " needs a value\n";
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket")
            opt.socketPath = value(i, arg);
        else if (arg == "--tcp")
            opt.tcpAddr = value(i, arg);
        else if (arg == "--clients")
            opt.clients = std::max(1, std::atoi(value(i, arg).c_str()));
        else if (arg == "--requests")
            opt.requests = std::max(1, std::atoi(value(i, arg).c_str()));
        else if (arg == "--rate")
            opt.rate = std::atof(value(i, arg).c_str());
        else if (arg == "--mix")
            opt.mix = value(i, arg);
        else if (arg == "--configs")
            opt.configsPerRequest =
                std::max(1, std::atoi(value(i, arg).c_str()));
        else if (arg == "--kernels")
            opt.kernels = std::max(1, std::atoi(value(i, arg).c_str()));
        else if (arg == "--device")
            opt.devices.push_back(value(i, arg));
        else if (arg == "--governor")
            opt.governor = value(i, arg);
        else if (arg == "--seed")
            opt.seed = std::strtoull(value(i, arg).c_str(), nullptr, 0);
        else if (arg == "--stats")
            opt.stats = true;
        else if (arg == "--shutdown")
            opt.shutdown = true;
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::cerr << "harmonia_client: unknown argument '" << arg
                      << "'\n";
            usage(2);
        }
    }
    if (opt.socketPath.empty() == opt.tcpAddr.empty()) {
        std::cerr << "harmonia_client: exactly one of --socket and "
                     "--tcp is required\n";
        usage(2);
    }
    if (opt.mix != "evaluate" && opt.mix != "mixed") {
        std::cerr << "harmonia_client: --mix must be evaluate|mixed\n";
        usage(2);
    }
    if (opt.clients > opt.requests)
        opt.clients = opt.requests;
    return opt;
}

/** Connect one blocking stream socket to the daemon; -1 on failure
 * (with the error already printed). */
int
connectOnce(const ClientOptions &opt)
{
    if (opt.tcpAddr.empty()) {
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            std::cerr << "harmonia_client: socket(): "
                      << std::strerror(errno) << '\n';
            return -1;
        }
        sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opt.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0) {
            std::cerr << "harmonia_client: connect("
                      << opt.socketPath
                      << "): " << std::strerror(errno) << '\n';
            close(fd);
            return -1;
        }
        return fd;
    }

    const size_t colon = opt.tcpAddr.rfind(':');
    if (colon == std::string::npos) {
        std::cerr << "harmonia_client: --tcp wants HOST:PORT, got '"
                  << opt.tcpAddr << "'\n";
        return -1;
    }
    std::string host = opt.tcpAddr.substr(0, colon);
    if (host.empty() || host == "localhost")
        host = "127.0.0.1";
    const int port = std::atoi(opt.tcpAddr.c_str() + colon + 1);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        std::cerr << "harmonia_client: bad TCP host '" << host
                  << "'\n";
        return -1;
    }
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::cerr << "harmonia_client: socket(): "
                  << std::strerror(errno) << '\n';
        return -1;
    }
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        std::cerr << "harmonia_client: connect(" << opt.tcpAddr
                  << "): " << std::strerror(errno) << '\n';
        close(fd);
        return -1;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** One of the N concurrent client connections. */
struct Connection
{
    int fd = -1;
    std::string sendBuf;
    std::string recvBuf;
};

} // namespace

int
main(int argc, char **argv)
{
    using Clock = std::chrono::steady_clock;
    const ClientOptions opt = parseArgs(argc, argv);
    // A daemon that closes a connection mid-send must surface as a
    // write() error with a reason, not as death by SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    Workload workload;
    if (opt.devices.empty()) {
        // No tag, HD7970 axes: byte-identical streams to the
        // pre-registry client.
        workload.devices.emplace_back();
    } else {
        for (const std::string &name : opt.devices)
            workload.devices.push_back(latticeFor(name));
    }
    for (const Application &app : standardSuite()) {
        for (const KernelProfile &k : app.kernels) {
            workload.kernelIds.push_back(k.id());
            if (workload.kernelIds.size() >=
                static_cast<size_t>(opt.kernels))
                break;
        }
        if (workload.kernelIds.size() >=
            static_cast<size_t>(opt.kernels))
            break;
    }

    // Pre-generate the whole stream so send time is pure I/O.
    uint64_t rng = opt.seed;
    std::vector<std::string> requests;
    requests.reserve(static_cast<size_t>(opt.requests));
    for (int i = 0; i < opt.requests; ++i)
        requests.push_back(makeRequest(opt, workload, rng, i));

    std::vector<Connection> conns(static_cast<size_t>(opt.clients));
    for (Connection &conn : conns) {
        conn.fd = connectOnce(opt);
        if (conn.fd < 0)
            return 1;
        // Non-blocking during the open-loop phase so a full send
        // buffer can never deadlock against a daemon busy writing
        // responses.
        fcntl(conn.fd, F_SETFL,
              fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
    }

    // Open loop: request i is due at start + i/rate and goes out on
    // connection i % N; sends never wait for responses. Responses are
    // drained whenever any socket has them, and matched to send
    // stamps by id (ids are globally unique across connections).
    std::vector<Clock::time_point> sentAt(
        static_cast<size_t>(opt.requests));
    std::vector<double> latenciesMs;
    latenciesMs.reserve(static_cast<size_t>(opt.requests));
    size_t sent = 0;
    size_t received = 0;
    size_t errors = 0;
    const Clock::time_point start = Clock::now();

    auto handleLine = [&](const std::string &line) {
        Result<JsonValue> doc = parseJson(line);
        if (!doc.ok()) {
            ++errors;
            ++received;
            std::cerr << "harmonia_client: unparseable response: "
                      << line << '\n';
            return;
        }
        const JsonValue *ok = doc.value().find("ok");
        const JsonValue *id = doc.value().find("id");
        if (!ok || !ok->isBool() || !ok->asBool()) {
            ++errors;
            if (!opt.quiet)
                std::cerr << "harmonia_client: error reply: " << line
                          << '\n';
        }
        if (id && id->isInt()) {
            const int64_t i = id->asInt();
            if (i >= 0 && i < opt.requests) {
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - sentAt[static_cast<size_t>(i)])
                        .count();
                latenciesMs.push_back(ms);
            }
        }
        ++received;
    };

    std::vector<pollfd> pfds(conns.size());
    while (received < static_cast<size_t>(opt.requests)) {
        const Clock::time_point now = Clock::now();

        // Queue every request whose scheduled arrival time has come
        // onto its connection.
        while (sent < requests.size()) {
            const double dueSec =
                opt.rate > 0.0 ? static_cast<double>(sent) / opt.rate
                               : 0.0;
            const double elapsed =
                std::chrono::duration<double>(now - start).count();
            if (elapsed < dueSec)
                break;
            Connection &conn = conns[sent % conns.size()];
            sentAt[sent] = now;
            conn.sendBuf += requests[sent];
            conn.sendBuf += '\n';
            ++sent;
        }

        bool sendBacklog = false;
        for (Connection &conn : conns) {
            if (conn.sendBuf.empty())
                continue;
            const ssize_t n = write(conn.fd, conn.sendBuf.data(),
                                    conn.sendBuf.size());
            if (n > 0)
                conn.sendBuf.erase(0, static_cast<size_t>(n));
            else if (n < 0 && errno != EAGAIN && errno != EINTR) {
                std::cerr << "harmonia_client: write(): "
                          << std::strerror(errno) << '\n';
                return 1;
            }
            if (!conn.sendBuf.empty())
                sendBacklog = true;
        }

        int timeoutMs = 0;
        if (!sendBacklog && sent < requests.size() &&
            opt.rate > 0.0) {
            const double dueSec = static_cast<double>(sent) / opt.rate;
            const double elapsed =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            timeoutMs = std::max(
                0, static_cast<int>((dueSec - elapsed) * 1000.0));
        } else if (!sendBacklog && sent == requests.size()) {
            timeoutMs = 1000;
        }

        for (size_t c = 0; c < conns.size(); ++c) {
            pfds[c].fd = conns[c].fd;
            pfds[c].events = static_cast<short>(
                POLLIN |
                (conns[c].sendBuf.empty() ? 0 : POLLOUT));
            pfds[c].revents = 0;
        }
        const int rc =
            poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                 timeoutMs);
        if (rc <= 0)
            continue;
        for (size_t c = 0; c < conns.size(); ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP)))
                continue;
            Connection &conn = conns[c];
            char buf[8192];
            const ssize_t n = read(conn.fd, buf, sizeof(buf));
            if (n > 0) {
                conn.recvBuf.append(buf, static_cast<size_t>(n));
                size_t startPos = 0;
                while (true) {
                    const size_t nl =
                        conn.recvBuf.find('\n', startPos);
                    if (nl == std::string::npos)
                        break;
                    handleLine(conn.recvBuf.substr(startPos,
                                                   nl - startPos));
                    startPos = nl + 1;
                }
                conn.recvBuf.erase(0, startPos);
            } else if (n == 0) {
                std::cerr << "harmonia_client: daemon closed a "
                             "connection with "
                          << (opt.requests - received)
                          << " response(s) outstanding\n";
                return 1;
            } else if (errno != EAGAIN && errno != EINTR) {
                std::cerr << "harmonia_client: read(): "
                          << std::strerror(errno) << '\n';
                return 1;
            }
        }
    }
    const Clock::time_point end = Clock::now();

    // Back to blocking for the simple stats/shutdown round trips
    // (first connection only).
    const int fd0 = conns.front().fd;
    fcntl(fd0, F_SETFL, fcntl(fd0, F_GETFL, 0) & ~O_NONBLOCK);

    bool roundTripsOk = true;
    auto roundTrip = [&](const std::string &line) -> std::string {
        std::string out = line + "\n";
        size_t off = 0;
        while (off < out.size()) {
            const ssize_t n = write(fd0, out.data() + off,
                                    out.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                std::cerr << "harmonia_client: write(): "
                          << std::strerror(errno) << '\n';
                roundTripsOk = false;
                return {};
            }
            off += static_cast<size_t>(n);
        }
        std::string reply;
        char buf[8192];
        while (reply.find('\n') == std::string::npos) {
            const ssize_t n = read(fd0, buf, sizeof(buf));
            if (n <= 0)
                return reply;
            reply.append(buf, static_cast<size_t>(n));
        }
        return reply.substr(0, reply.find('\n'));
    };

    if (opt.stats) {
        const std::string reply = roundTrip(
            std::string("{\"schema\":\"") + kRequestSchema +
            "\",\"id\":\"stats\",\"verb\":\"stats\"}");
        std::cout << "daemon stats: " << reply << '\n';
    }
    if (opt.shutdown) {
        roundTrip(std::string("{\"schema\":\"") + kRequestSchema +
                  "\",\"id\":\"bye\",\"verb\":\"shutdown\"}");
    }
    for (const Connection &conn : conns)
        close(conn.fd);

    std::sort(latenciesMs.begin(), latenciesMs.end());
    const double wallSec =
        std::chrono::duration<double>(end - start).count();
    const double throughput =
        wallSec > 0.0 ? static_cast<double>(opt.requests) / wallSec
                      : 0.0;
    double meanMs = 0.0;
    for (const double ms : latenciesMs)
        meanMs += ms;
    if (!latenciesMs.empty())
        meanMs /= static_cast<double>(latenciesMs.size());

    std::cout << "harmonia_client: " << opt.requests << " requests ("
              << opt.mix << ", " << conns.size() << " connection"
              << (conns.size() == 1 ? "" : "s") << "), " << errors
              << " error(s), " << throughput << " req/s\n"
              << "latency ms: mean " << meanMs << "  p50 "
              << percentile(latenciesMs, 50.0) << "  p90 "
              << percentile(latenciesMs, 90.0) << "  p99 "
              << percentile(latenciesMs, 99.0) << "  max "
              << (latenciesMs.empty() ? 0.0 : latenciesMs.back())
              << '\n';

    return errors == 0 && roundTripsOk ? 0 : 1;
}
