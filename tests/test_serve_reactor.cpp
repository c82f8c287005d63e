/**
 * @file
 * Reactor lifecycle and containment tests: the daemon must keep
 * serving every well-behaved connection no matter what any single
 * client does. Covered here, each over a real in-process Server:
 *
 *  - slow-client framing: a request dribbled one byte at a time and a
 *    response read one byte at a time are handled identically to
 *    whole-line I/O, on both the Unix-domain and TCP transports;
 *  - idle-timeout eviction: a silent connection is closed, counted,
 *    and the listener keeps accepting;
 *  - abrupt disconnect mid-batch: a client that vanishes while its
 *    request is queued in an open coalescing window costs nothing but
 *    a disconnect tick — co-batched clients get their replies;
 *  - write backpressure: a client that requests megabytes and never
 *    reads is shed at the buffer cap, alone;
 *  - --max-connections: connects past the cap get one structured
 *    resource_exhausted reply, existing connections keep working;
 *  - wake-up precision: the reactor sleeps exactly to its coalescing
 *    deadline (wakeTimeout), so the adaptive window adds no
 *    millisecond floor to a lone client's cached round trip.
 *
 * The transport counters these paths tick are asserted through the
 * public `stats` verb, the same way an operator would see them.
 */

#include "harmonia/serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
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
#include "harmonia/serve/service.hh"
#include "harmonia/workloads/suite.hh"
#include "serve/wake.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

void
setRecvTimeout(int fd)
{
    timeval tv;
    tv.tv_sec = 20; // A hung read fails the test instead of the run.
    tv.tv_usec = 0;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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
    setRecvTimeout(fd);
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
    setRecvTimeout(fd);
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

std::string
pingLine(const std::string &id)
{
    return std::string("{\"schema\":\"") + kRequestSchema +
           "\",\"id\":\"" + id + "\",\"verb\":\"ping\"}\n";
}

std::string
evaluateAllLine(const std::string &id, const std::string &kernel)
{
    return std::string("{\"schema\":\"") + kRequestSchema +
           "\",\"id\":\"" + id +
           "\",\"verb\":\"evaluate\",\"kernel\":\"" + kernel +
           "\",\"iteration\":0,\"configs\":\"all\"}\n";
}

/** A governor-style evaluate: eight on-lattice configs of one key. */
std::string
evaluateSliceLine(const std::string &id, const std::string &kernel)
{
    std::string configs;
    for (int i = 0; i < 8; ++i) {
        configs += std::string(i == 0 ? "" : ",") + "{\"cu\":" +
                   std::to_string(4 + 4 * i) + ",\"compute_mhz\":" +
                   std::to_string(300 + 100 * i) + ",\"mem_mhz\":" +
                   std::to_string(475 + 150 * (i % 7)) + "}";
    }
    return std::string("{\"schema\":\"") + kRequestSchema +
           "\",\"id\":\"" + id +
           "\",\"verb\":\"evaluate\",\"kernel\":\"" + kernel +
           "\",\"iteration\":0,\"configs\":[" + configs + "]}\n";
}

/** One blocking request/response round trip on @p fd. */
bool
roundTrip(int fd, const std::string &request, std::string &reply)
{
    std::string carry;
    return sendAll(fd, request) && readLine(fd, carry, reply);
}

bool
replyOk(const std::string &reply)
{
    const Result<JsonValue> doc = parseJson(reply);
    if (!doc.ok())
        return false;
    const JsonValue *ok = doc.value().find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

std::string
replyErrorCode(const std::string &reply)
{
    const Result<JsonValue> doc = parseJson(reply);
    if (!doc.ok())
        return "";
    const JsonValue *error = doc.value().find("error");
    if (error == nullptr)
        return "";
    const JsonValue *code = error->find("code");
    return code != nullptr && code->isString() ? code->asString()
                                               : "";
}

/** Fetch a transport counter via the public stats verb on @p fd. */
int64_t
transportCounter(int fd, const std::string &key)
{
    std::string reply;
    if (!roundTrip(fd,
                   std::string("{\"schema\":\"") + kRequestSchema +
                       "\",\"id\":\"s\",\"verb\":\"stats\"}\n",
                   reply))
        return -1;
    const Result<JsonValue> doc = parseJson(reply);
    if (!doc.ok())
        return -1;
    const JsonValue *node = doc.value().find("result");
    for (const char *step : {"metrics", "transport"})
        node = node != nullptr ? node->find(step) : nullptr;
    node = node != nullptr ? node->find(key) : nullptr;
    return node != nullptr && node->isInt() ? node->asInt() : -1;
}

/**
 * An in-process daemon: Service + Server on a thread, listening on
 * both a fresh Unix socket and an ephemeral TCP port. stop() shuts it
 * down via the protocol, retrying while the connection cap is still
 * occupied by recently-closed peers.
 */
class Reactor
{
  public:
    explicit Reactor(ServerOptions sopt, int jobs = 1)
    {
        ServiceOptions svc;
        svc.jobs = jobs;
        service_ = std::make_unique<Service>(svc);
        sockPath_ = "/tmp/harmonia_reactor_" +
                    std::to_string(getpid()) + "_" +
                    std::to_string(instance_++) + ".sock";
        sopt.socketPath = sockPath_;
        if (sopt.tcpBind.empty())
            sopt.tcpBind = "127.0.0.1:0";
        server_ = std::make_unique<Server>(*service_, sopt);
        cerrBuf_ = std::cerr.rdbuf(sink_.rdbuf());
        startOk_ = server_->start().ok();
        if (startOk_)
            thread_ = std::thread([this] { server_->run(); });
        else
            std::cerr.rdbuf(cerrBuf_);
    }

    ~Reactor() { stop(); }

    bool ok() const { return startOk_; }
    const std::string &socketPath() const { return sockPath_; }
    int tcpPort() const { return server_->tcpPort(); }

    void stop()
    {
        if (!thread_.joinable())
            return;
        for (int attempt = 0; attempt < 50; ++attempt) {
            const int fd = connectUnix(sockPath_);
            if (fd >= 0) {
                std::string reply;
                const bool sent = roundTrip(
                    fd,
                    std::string("{\"schema\":\"") + kRequestSchema +
                        "\",\"id\":\"bye\",\"verb\":\"shutdown\"}\n",
                    reply);
                close(fd);
                if (sent && replyOk(reply))
                    break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        thread_.join();
        std::cerr.rdbuf(cerrBuf_);
    }

  private:
    static int instance_;
    std::unique_ptr<Service> service_;
    std::unique_ptr<Server> server_;
    std::string sockPath_;
    std::thread thread_;
    std::ostringstream sink_;
    std::streambuf *cerrBuf_ = nullptr;
    bool startOk_ = false;
};

int Reactor::instance_ = 0;

std::string
firstKernelId()
{
    return standardSuite().front().kernels.front().id();
}

// A request dribbled one byte per write() and a response read one
// byte per read() must behave exactly like whole-line I/O — framing
// lives above the transport. Exercised on both socket transports.
TEST(ServeReactor, SlowClientFramingBothTransports)
{
    Reactor reactor(ServerOptions{});
    ASSERT_TRUE(reactor.ok());

    const std::string request =
        pingLine("slow") + evaluateAllLine("ev", firstKernelId());
    for (const bool tcp : {false, true}) {
        SCOPED_TRACE(tcp ? "tcp" : "unix");
        const int fd = tcp ? connectTcp(reactor.tcpPort())
                           : connectUnix(reactor.socketPath());
        ASSERT_GE(fd, 0);

        // Dribble the two requests a byte at a time.
        for (const char byte : request)
            ASSERT_TRUE(sendAll(fd, std::string(1, byte)));

        // Read the replies a byte at a time, splitting mid-line.
        std::string stream;
        int newlines = 0;
        while (newlines < 2) {
            char byte = 0;
            const ssize_t n = read(fd, &byte, 1);
            if (n < 0 && errno == EINTR)
                continue;
            ASSERT_GT(n, 0);
            stream += byte;
            if (byte == '\n')
                ++newlines;
        }
        const size_t nl = stream.find('\n');
        const std::string ping = stream.substr(0, nl);
        const std::string eval =
            stream.substr(nl + 1, stream.size() - nl - 2);
        EXPECT_TRUE(replyOk(ping)) << ping;
        EXPECT_TRUE(replyOk(eval)) << eval.substr(0, 200);
        close(fd);
    }
}

// A connection with no traffic past the idle timeout is evicted and
// counted; the daemon keeps serving new connections.
TEST(ServeReactor, IdleTimeoutEvictsSilentConnection)
{
    ServerOptions sopt;
    sopt.idleTimeoutMillis = 100;
    Reactor reactor(sopt);
    ASSERT_TRUE(reactor.ok());

    const int idle = connectTcp(reactor.tcpPort());
    ASSERT_GE(idle, 0);
    std::string reply;
    ASSERT_TRUE(roundTrip(idle, pingLine("a"), reply));
    EXPECT_TRUE(replyOk(reply));

    // Go silent; the server must close its end.
    std::string carry, line;
    EXPECT_FALSE(readLine(idle, carry, line));
    close(idle);

    const int fresh = connectUnix(reactor.socketPath());
    ASSERT_GE(fresh, 0);
    ASSERT_TRUE(roundTrip(fresh, pingLine("b"), reply));
    EXPECT_TRUE(replyOk(reply));
    EXPECT_GE(transportCounter(fresh, "idle_timeouts"), 1);
    close(fresh);
}

// A client that disconnects while its request sits in an open
// coalescing window costs a disconnect tick and nothing else: the
// co-batched client still gets its reply.
TEST(ServeReactor, AbruptDisconnectMidBatchContained)
{
    ServerOptions sopt;
    sopt.coalesceMicros = 100000; // A wide window the batch waits in.
    Reactor reactor(sopt);
    ASSERT_TRUE(reactor.ok());

    const std::string kernel = firstKernelId();
    const int ghost = connectTcp(reactor.tcpPort());
    ASSERT_GE(ghost, 0);
    const int survivor = connectTcp(reactor.tcpPort());
    ASSERT_GE(survivor, 0);

    // The ghost's request enters the window, then the ghost vanishes.
    ASSERT_TRUE(sendAll(ghost, evaluateAllLine("ghost", kernel)));
    close(ghost);

    ASSERT_TRUE(sendAll(survivor, evaluateAllLine("kept", kernel)));
    std::string carry, reply;
    ASSERT_TRUE(readLine(survivor, carry, reply));
    EXPECT_TRUE(replyOk(reply)) << reply.substr(0, 200);

    EXPECT_GE(transportCounter(survivor, "disconnects"), 1);
    close(survivor);
}

// A connection that requests far more output than it reads is shed at
// the write-buffer cap — alone; other connections never notice.
TEST(ServeReactor, BackpressureShedsOnlyTheStalledReader)
{
    ServerOptions sopt;
    sopt.maxWriteBufferBytes = 1024;
    Reactor reactor(sopt);
    ASSERT_TRUE(reactor.ok());

    const std::string kernel = firstKernelId();
    const int hog = connectUnix(reactor.socketPath());
    ASSERT_GE(hog, 0);

    // Request ~megabytes of full-lattice responses and never read:
    // the kernel socket buffer fills, the server-side buffer hits the
    // cap, the connection is shed.
    std::string burst;
    for (int i = 0; i < 16; ++i)
        burst += evaluateAllLine("hog" + std::to_string(i), kernel);
    ASSERT_TRUE(sendAll(hog, burst));

    // The responses total ~1.8 MB against a ~200 KiB socket buffer
    // and a 1 KiB server-side cap; while the hog reads nothing, the
    // flush hits EAGAIN and the shed must fire. Watch for it through
    // a second connection — which the shed must not disturb.
    const int fresh = connectUnix(reactor.socketPath());
    ASSERT_GE(fresh, 0);
    int64_t sheds = 0;
    for (int i = 0; i < 600 && sheds < 1; ++i) {
        sheds = transportCounter(fresh, "backpressure_sheds");
        if (sheds < 1)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    EXPECT_GE(sheds, 1);

    // The hog's stream ends early: the socket buffer's worth of
    // responses at most, never the full set.
    std::string carry, line;
    size_t linesSeen = 0;
    while (readLine(hog, carry, line))
        ++linesSeen;
    EXPECT_LT(linesSeen, 16u);
    close(hog);

    std::string reply;
    ASSERT_TRUE(roundTrip(fresh, pingLine("after"), reply));
    EXPECT_TRUE(replyOk(reply));
    close(fresh);
}

// Connects past --max-connections get one structured
// resource_exhausted reply and a close; established connections are
// untouched and the slot frees once a peer departs.
TEST(ServeReactor, MaxConnectionsRejectsWithStructuredError)
{
    ServerOptions sopt;
    sopt.maxConnections = 2;
    Reactor reactor(sopt);
    ASSERT_TRUE(reactor.ok());

    const int a = connectUnix(reactor.socketPath());
    const int b = connectTcp(reactor.tcpPort());
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    std::string reply;
    ASSERT_TRUE(roundTrip(a, pingLine("a"), reply));
    ASSERT_TRUE(roundTrip(b, pingLine("b"), reply));

    const int over = connectTcp(reactor.tcpPort());
    ASSERT_GE(over, 0);
    std::string carry, line;
    ASSERT_TRUE(readLine(over, carry, line));
    EXPECT_EQ(replyErrorCode(line), "resource_exhausted") << line;
    EXPECT_FALSE(readLine(over, carry, line)); // Then closed.
    close(over);

    // The established pair is unaffected, and the rejection counted.
    ASSERT_TRUE(roundTrip(a, pingLine("a2"), reply));
    EXPECT_TRUE(replyOk(reply));
    EXPECT_GE(transportCounter(b, "rejected"), 1);
    close(a);
    close(b);
}

// --- wake-up precision --------------------------------------------------

// A coalescing window of a few microseconds sleeps for exactly that,
// not for a millisecond.
TEST(ServeReactorWake, MicrosecondsLeftBecomeNanoseconds)
{
    timespec ts{};
    const timespec *t = wakeTimeout(1000, 1005, false, ts);
    ASSERT_EQ(t, &ts);
    EXPECT_EQ(ts.tv_sec, 0);
    EXPECT_EQ(ts.tv_nsec, 5000);
}

TEST(ServeReactorWake, PassedDeadlineIsZeroTimeout)
{
    for (const long long wakeAt : {1500LL, 2000LL}) {
        timespec ts{7, 7};
        ASSERT_EQ(wakeTimeout(2000, wakeAt, false, ts), &ts);
        EXPECT_EQ(ts.tv_sec, 0);
        EXPECT_EQ(ts.tv_nsec, 0);
    }
}

TEST(ServeReactorWake, NoDeadlineBlocks)
{
    timespec ts{};
    EXPECT_EQ(wakeTimeout(1000, -1, false, ts), nullptr);
}

// Draining re-checks on a fixed 10 ms tick, deadline or not.
TEST(ServeReactorWake, DrainingTicks)
{
    for (const long long wakeAt : {-1LL, 1005LL}) {
        timespec ts{};
        ASSERT_EQ(wakeTimeout(1000, wakeAt, true, ts), &ts);
        EXPECT_EQ(ts.tv_sec, 0);
        EXPECT_EQ(ts.tv_nsec, 10000000);
    }
}

TEST(ServeReactorWake, SecondsSplitFromNanoseconds)
{
    timespec ts{};
    ASSERT_EQ(wakeTimeout(0, 2500000, false, ts), &ts);
    EXPECT_EQ(ts.tv_sec, 2);
    EXPECT_EQ(ts.tv_nsec, 500000000);
}

/**
 * Median of 200 closed-loop round trips of one cached evaluate from a
 * lone Unix-socket client of a fresh reactor with @p sopt; <0 when a
 * request fails.
 */
double
medianCachedRoundTripMs(const ServerOptions &sopt)
{
    Reactor reactor(sopt);
    const int fd = reactor.ok() ? connectUnix(reactor.socketPath()) : -1;
    if (fd < 0)
        return -1.0;
    const std::string request = evaluateSliceLine("e", firstKernelId());
    // The first request fills the cache and the service-time EWMA.
    std::string reply;
    bool ok = roundTrip(fd, request, reply) && replyOk(reply);
    std::vector<double> ms;
    for (int i = 0; ok && i < 200; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        ok = roundTrip(fd, request, reply) && replyOk(reply);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    close(fd);
    if (!ok)
        return -1.0;
    std::nth_element(ms.begin(), ms.begin() + 100, ms.end());
    return ms[100];
}

// One client, the default adaptive window, one cached key. The window
// is an eighth of the service time, so a round trip may exceed one
// without a window (--coalesce-us 0) by that eighth and no more; 0.5
// ms of slack on top covers noise. A reactor that rounded its sleep up
// to whole milliseconds added >= 1 ms to every request, so on an
// optimized build (~0.1 ms round trips) the bound separates the two
// widely. Comparing against the no-window median keeps the test valid
// on slow sanitizer builds too. The best of three attempts rides out a
// burst of host load.
TEST(ServeReactor, LoneClientHasNoMillisecondFloor)
{
    ServerOptions immediate;
    immediate.coalesceMicros = 0;
    double bestExcessMs = 1e9;
    for (int attempt = 0; attempt < 3 && bestExcessMs >= 0.5;
         ++attempt) {
        const double adaptiveMs =
            medianCachedRoundTripMs(ServerOptions{});
        const double immediateMs = medianCachedRoundTripMs(immediate);
        ASSERT_GE(adaptiveMs, 0.0);
        ASSERT_GE(immediateMs, 0.0);
        bestExcessMs = std::min(bestExcessMs,
                                adaptiveMs - immediateMs * 9.0 / 8.0);
    }
    EXPECT_LT(bestExcessMs, 0.5);
}

} // namespace
