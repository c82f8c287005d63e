/**
 * @file
 * Serving determinism: an identical request stream must yield
 * byte-identical response bodies regardless of worker count (--jobs 1
 * vs --jobs 8) and of how the transport cuts the stream into reads.
 * This is the wire-level corollary of the factored evaluator's bitwise
 * guarantee (tests/test_sweep_determinism.cpp): nothing about
 * scheduling may leak into what a client observes.
 *
 * The `stats` verb is deliberately absent from the stream — it reports
 * wall-clock latencies and is the protocol's one sanctioned source of
 * nondeterminism.
 *
 * The transport tests extend the contract through the reactor: the
 * same stream pushed through a real Server over stdio pipes, a
 * Unix-domain socket, and TCP must come back byte-identical to the
 * in-process Service replay — transport framing, read boundaries and
 * connection plumbing leak nothing.
 */

#include "harmonia/serve/service.hh"

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harmonia/serve/json_tree.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

/** @p cfg as the tree a request carries. */
JsonValue
configTree(const HardwareConfig &cfg)
{
    return JsonValue::object({{"cu", JsonValue(cfg.cuCount)},
                              {"compute_mhz", JsonValue(cfg.computeFreqMhz)},
                              {"mem_mhz", JsonValue(cfg.memFreqMhz)}});
}

/** A mixed-verb stream (no `stats`): partial and full-lattice
 * evaluates with overlapping config slices, governor sessions, a
 * sweep, and pings. */
std::vector<std::string>
requestStream(const ConfigSweep &sweep)
{
    const std::vector<HardwareConfig> &configs = sweep.configs();
    std::vector<std::string> kernelIds;
    for (const Application &app : standardSuite())
        for (const KernelProfile &k : app.kernels)
            kernelIds.push_back(k.id());

    std::vector<std::string> lines;
    int id = 0;
    auto push = [&](JsonValue req) {
        req.set("id", JsonValue(id++));
        lines.push_back(req.dump());
    };

    // Overlapping evaluate slices against a few (kernel, iteration)
    // invocations.
    for (int r = 0; r < 12; ++r) {
        const std::string &kid = kernelIds[(r / 4) % kernelIds.size()];
        JsonValue cfgs = JsonValue::array();
        for (int i = 0; i < 6; ++i)
            cfgs.push(configTree(
                configs[(r * 3 + i * 7) % configs.size()]));
        push(JsonValue::object({
            {"schema", JsonValue(kRequestSchema)},
            {"verb", JsonValue("evaluate")},
            {"kernel", JsonValue(kid)},
            {"iteration", JsonValue(r % 2)},
            {"configs", std::move(cfgs)},
        }));
    }

    // Two interleaved governor sessions stepping the same kernel.
    for (int step = 0; step < 4; ++step) {
        for (const char *session : {"alpha", "beta"}) {
            push(JsonValue::object({
                {"schema", JsonValue(kRequestSchema)},
                {"verb", JsonValue("govern")},
                {"session", JsonValue(session)},
                {"governor", JsonValue("baseline")},
                {"kernel", JsonValue(kernelIds.front())},
                {"iteration", JsonValue(step)},
            }));
        }
    }

    // One full sweep, then a full-lattice evaluate of the same
    // invocation.
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("sweep")},
        {"kernel", JsonValue(kernelIds[1])},
        {"iteration", JsonValue(0)},
        {"objective", JsonValue("min_ed2")},
        {"top", JsonValue(3)},
    }));
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue(kernelIds[1])},
        {"iteration", JsonValue(0)},
        {"configs", JsonValue("all")},
    }));

    // An error in the stream must also be deterministic.
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue("NoSuch.Kernel")},
        {"configs", JsonValue("all")},
    }));
    push(JsonValue::object({{"schema", JsonValue(kRequestSchema)},
                            {"verb", JsonValue("ping")}}));
    return lines;
}

/** Answer requestStream() line by line in a fresh service. */
std::vector<std::string>
replay(int jobs)
{
    ServiceOptions opt;
    opt.jobs = jobs;
    Service service(opt);
    std::vector<std::string> responses;
    for (const std::string &line : requestStream(service.sweep()))
        responses.push_back(service.processLine(line));
    return responses;
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

int
connectUnix(const std::string &path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

int
connectTcp(int port)
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

/**
 * Push requestStream() through a real reactor over @p mode ("stdio",
 * "unix", or "tcp") on one connection and return the response lines in
 * request order. The stream goes out in writes of @p chunkBytes (0 =
 * one write), so the reactor's reads cut lines at arbitrary points.
 * The server runs on a thread inside this process; the test plays the
 * client.
 */
std::vector<std::string>
transportReplay(const std::string &mode, size_t chunkBytes = 0)
{
    ServiceOptions opt;
    opt.jobs = 2;
    Service service(opt);
    const std::vector<std::string> lines =
        requestStream(service.sweep());

    ServerOptions sopt;
    int reqPipe[2] = {-1, -1};
    int respPipe[2] = {-1, -1};
    std::string sockPath;
    if (mode == "stdio") {
        if (pipe(reqPipe) != 0 || pipe(respPipe) != 0)
            return {};
        sopt.stdio = true;
        sopt.stdioReadFd = reqPipe[0];
        sopt.stdioWriteFd = respPipe[1];
    } else if (mode == "unix") {
        sockPath = "/tmp/harmonia_det_" + std::to_string(getpid()) +
                   ".sock";
        sopt.socketPath = sockPath;
    } else {
        sopt.tcpBind = "127.0.0.1:0";
    }

    sopt.quiet = true;
    Server server(sopt);
    if (!server.start().ok())
        return {};
    std::thread reactor([&] { server.run(service); });

    int wfd = -1, rfd = -1;
    if (mode == "stdio") {
        wfd = reqPipe[1];
        rfd = respPipe[0];
    } else if (mode == "unix") {
        wfd = rfd = connectUnix(sockPath);
    } else {
        wfd = rfd = connectTcp(server.tcpPort());
    }

    std::vector<std::string> responses;
    if (wfd >= 0 && rfd >= 0) {
        std::string all;
        for (const std::string &l : lines) {
            all += l;
            all += '\n';
        }
        const size_t chunk = chunkBytes == 0 ? all.size() : chunkBytes;
        for (size_t off = 0; off < all.size(); off += chunk)
            sendAll(wfd, all.substr(off, chunk));
        if (mode == "stdio")
            close(wfd); // EOF doubles as the shutdown request.

        std::string carry;
        while (responses.size() < lines.size()) {
            std::string line;
            if (!readLine(rfd, carry, line))
                break;
            responses.push_back(std::move(line));
        }
        if (mode != "stdio") {
            // A trailing shutdown verb (not part of the compared
            // stream) stops the reactor.
            sendAll(wfd, std::string("{\"schema\":\"") +
                             kRequestSchema +
                             "\",\"id\":\"bye\",\"verb\":"
                             "\"shutdown\"}\n");
            std::string line;
            readLine(rfd, carry, line);
        }
    }
    reactor.join();
    if (mode == "stdio") {
        close(reqPipe[0]);
        close(respPipe[0]);
        close(respPipe[1]);
    } else if (rfd >= 0) {
        close(rfd);
    }
    return responses;
}

// Transport must be invisible: stdio pipes, a Unix socket, and TCP
// all return the bytes the in-process Service replay produces.
TEST(ServeDeterminism, ResponsesIndependentOfTransport)
{
    const std::vector<std::string> base = replay(2);
    for (const char *mode : {"stdio", "unix", "tcp"}) {
        const std::vector<std::string> got = transportReplay(mode);
        ASSERT_EQ(base.size(), got.size()) << "transport " << mode;
        for (size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(base[i], got[i])
                << "transport " << mode << ", response " << i;
    }
}

// ... and so must the points where the reactor's reads cut the
// stream: writes of a few bytes split lines across reads and wake-ups.
TEST(ServeDeterminism, ResponsesIndependentOfReadBoundaries)
{
    const std::vector<std::string> base = replay(2);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4093}}) {
        const std::vector<std::string> got = transportReplay("unix", chunk);
        ASSERT_EQ(base.size(), got.size()) << "chunk " << chunk;
        for (size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(base[i], got[i])
                << "chunk " << chunk << ", response " << i;
    }
}

TEST(ServeDeterminism, ResponsesIndependentOfWorkerCount)
{
    const std::vector<std::string> serial = replay(1);
    const std::vector<std::string> parallel = replay(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "response " << i;
}

TEST(ServeDeterminism, RepeatRunsAreByteIdentical)
{
    EXPECT_EQ(replay(8), replay(8));
}

} // namespace
