/**
 * @file
 * Serving determinism: an identical request stream must yield
 * byte-identical response bodies regardless of worker count (--jobs 1
 * vs --jobs 8), micro-batching on/off, and how the stream is cut into
 * coalescing windows. This is the wire-level corollary of the factored
 * evaluator's bitwise guarantee (tests/test_sweep_determinism.cpp):
 * nothing about scheduling may leak into what a client observes.
 *
 * The `stats` verb is deliberately absent from the stream — it reports
 * wall-clock latencies and is the protocol's one sanctioned source of
 * nondeterminism.
 *
 * The transport tests extend the contract through the reactor: the
 * same stream pushed through a real Server over stdio pipes, a
 * Unix-domain socket, and TCP must come back byte-identical to the
 * in-process Service replay — transport framing, coalescing windows,
 * and connection plumbing leak nothing.
 */

#include "harmonia/serve/service.hh"

#include <cerrno>
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
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

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
    // invocations — the coalescer's dedup path.
    for (int r = 0; r < 12; ++r) {
        const std::string &kid = kernelIds[(r / 4) % kernelIds.size()];
        JsonValue cfgs = JsonValue::array();
        for (int i = 0; i < 6; ++i)
            cfgs.push(configToJson(
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

    // One full sweep (memoizes the lattice) then a full-lattice
    // evaluate that must be served from the same memo.
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

/** Run @p lines through a fresh service, cut into windows of
 * @p windowSize requests. */
std::vector<std::string>
replay(int jobs, bool batching, size_t windowSize)
{
    ServiceOptions opt;
    opt.jobs = jobs;
    opt.batching = batching;
    Service service(opt);
    const std::vector<std::string> lines =
        requestStream(service.sweep());

    std::vector<std::string> responses;
    for (size_t begin = 0; begin < lines.size();
         begin += windowSize) {
        const size_t end =
            std::min(begin + windowSize, lines.size());
        const std::vector<std::string> window(
            lines.begin() + begin, lines.begin() + end);
        for (std::string &r : service.processBatch(window))
            responses.push_back(std::move(r));
    }
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
 * request order. The server runs on a thread inside this process; the
 * test plays the client.
 */
std::vector<std::string>
transportReplay(const std::string &mode, bool batching)
{
    ServiceOptions opt;
    opt.jobs = 2;
    opt.batching = batching;
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

    Server server(service, sopt);
    std::ostringstream sink; // The reactor narrates on stderr.
    std::streambuf *cerrBuf = std::cerr.rdbuf(sink.rdbuf());
    if (!server.start().ok()) {
        std::cerr.rdbuf(cerrBuf);
        return {};
    }
    std::thread reactor([&server] { server.run(); });

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
        sendAll(wfd, all);
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
    std::cerr.rdbuf(cerrBuf);
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
    const std::vector<std::string> base = replay(2, true, 1000);
    for (const char *mode : {"stdio", "unix", "tcp"}) {
        const std::vector<std::string> got =
            transportReplay(mode, true);
        ASSERT_EQ(base.size(), got.size()) << "transport " << mode;
        for (size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(base[i], got[i])
                << "transport " << mode << ", response " << i;
    }
}

// ... and the batching toggle stays invisible through a real socket.
TEST(ServeDeterminism, TcpResponsesIndependentOfBatching)
{
    EXPECT_EQ(transportReplay("tcp", true),
              transportReplay("tcp", false));
}

TEST(ServeDeterminism, ResponsesIndependentOfWorkerCount)
{
    const std::vector<std::string> serial = replay(1, true, 8);
    const std::vector<std::string> parallel = replay(8, true, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "response " << i;
}

TEST(ServeDeterminism, ResponsesIndependentOfBatching)
{
    const std::vector<std::string> batched = replay(4, true, 8);
    const std::vector<std::string> unbatched = replay(4, false, 8);
    ASSERT_EQ(batched.size(), unbatched.size());
    for (size_t i = 0; i < batched.size(); ++i)
        EXPECT_EQ(batched[i], unbatched[i]) << "response " << i;
}

TEST(ServeDeterminism, ResponsesIndependentOfWindowBoundaries)
{
    const std::vector<std::string> one = replay(2, true, 1);
    const std::vector<std::string> big = replay(2, true, 1000);
    ASSERT_EQ(one.size(), big.size());
    for (size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], big[i]) << "response " << i;
}

TEST(ServeDeterminism, RepeatRunsAreByteIdentical)
{
    EXPECT_EQ(replay(8, true, 8), replay(8, true, 8));
}

} // namespace
