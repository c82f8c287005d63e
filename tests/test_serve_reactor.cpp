/**
 * @file
 * Reactor lifecycle and containment tests: the daemon must keep
 * serving every well-behaved connection no matter what any single
 * client does. Covered here, each over a real in-process Server:
 *
 *  - slow-client framing: a request dribbled one byte at a time and a
 *    response read one byte at a time are handled identically to
 *    whole-line I/O, on both the Unix-domain and TCP transports;
 *  - an oversized line sent in small chunks gets one error reply, and
 *    the next line is served;
 *  - idle-timeout eviction: a silent connection is closed, counted,
 *    and the listener keeps accepting;
 *  - abrupt disconnect mid-request: a client that vanishes before its
 *    reply is written costs nothing but a disconnect tick — other
 *    clients get their replies;
 *  - write backpressure: a client that requests megabytes and never
 *    reads is shed at the buffer cap, alone;
 *  - --max-connections: connects past the cap get one structured
 *    resource_exhausted reply, existing connections keep working;
 *  - a bounded drain: a peer that never reads its replies is shed
 *    after a second without progress, so shutdown still completes;
 *  - wake-up precision: the reactor sleeps exactly to its next
 *    deadline (wakeTimeout), never rounded to whole milliseconds.
 *
 * The transport counters these paths tick are asserted through the
 * public `stats` verb, the same way an operator would see them.
 */

#include "harmonia/serve/server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harmonia/serve/json_tree.hh"
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
    explicit Reactor(ServerOptions sopt, ServiceOptions svc = {})
    {
        service_ = std::make_unique<Service>(svc);
        sockPath_ = "/tmp/harmonia_reactor_" +
                    std::to_string(getpid()) + "_" +
                    std::to_string(instance_++) + ".sock";
        sopt.socketPath = sockPath_;
        if (sopt.tcpBind.empty())
            sopt.tcpBind = "127.0.0.1:0";
        sopt.quiet = true;
        server_ = std::make_unique<Server>(sopt);
        startOk_ = server_->start().ok();
        if (startOk_)
            thread_ = std::thread([this] { server_->run(*service_); });
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
    }

  private:
    static int instance_;
    std::unique_ptr<Service> service_;
    std::unique_ptr<Server> server_;
    std::string sockPath_;
    std::thread thread_;
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

// A line past maxRequestBytes, sent in small chunks, is rejected once
// with a null id while it streams in (the newline scan covers only the
// bytes each read adds), and the next line is served normally.
TEST(ServeReactor, OversizedLineInChunksRejectedOnce)
{
    ServiceOptions svc;
    svc.maxRequestBytes = 64 * 1024;
    Reactor reactor(ServerOptions{}, svc);
    ASSERT_TRUE(reactor.ok());

    const int fd = connectUnix(reactor.socketPath());
    ASSERT_GE(fd, 0);
    // 160 KiB of one line, 512 bytes per write, then a ping.
    const std::string chunk(512, 'x');
    for (int i = 0; i < 320; ++i)
        ASSERT_TRUE(sendAll(fd, chunk));
    ASSERT_TRUE(sendAll(fd, "\n" + pingLine("after")));

    std::string carry, first, second;
    ASSERT_TRUE(readLine(fd, carry, first));
    ASSERT_TRUE(readLine(fd, carry, second));
    EXPECT_EQ(replyErrorCode(first), "resource_exhausted") << first;
    const Result<JsonValue> doc = parseJson(first);
    ASSERT_TRUE(doc.ok());
    ASSERT_NE(doc.value().find("id"), nullptr);
    EXPECT_TRUE(doc.value().find("id")->isNull()) << first;
    EXPECT_TRUE(replyOk(second)) << second;
    EXPECT_NE(second.find("\"after\""), std::string::npos) << second;
    EXPECT_TRUE(carry.empty()) << "unexpected extra reply: " << carry;
    close(fd);
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

// A client that sends a full-lattice request and disconnects before
// its ~110 kB reply is written costs a disconnect tick and nothing
// else: another client still gets its reply.
TEST(ServeReactor, AbruptDisconnectMidBatchContained)
{
    Reactor reactor(ServerOptions{});
    ASSERT_TRUE(reactor.ok());

    const std::string kernel = firstKernelId();
    const int ghost = connectTcp(reactor.tcpPort());
    ASSERT_GE(ghost, 0);
    const int survivor = connectTcp(reactor.tcpPort());
    ASSERT_GE(survivor, 0);

    // The ghost's request is in flight when the ghost vanishes.
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

// A peer that writes requests and never reads its replies cannot hold
// a drain. Once its unsent replies have not shrunk for the drain grace
// (1 s), it is shed and counted, and run() returns; a well-behaved
// client in the same drain still gets every reply.
TEST(ServeReactor, DrainShedsAPeerThatNeverReads)
{
    Service service(ServiceOptions{});
    ServerOptions sopt;
    sopt.socketPath = "/tmp/harmonia_reactor_" + std::to_string(getpid()) +
                      "_drain.sock";
    sopt.quiet = true;
    Server server(sopt);
    ASSERT_TRUE(server.start().ok());
    std::atomic<bool> returned{false};
    std::thread reactor([&] {
        server.run(service);
        returned = true;
    });

    // ~400 kB of pings, never read. The writer blocks once the daemon
    // stops reading (its replies are unsent), so it has its own thread.
    const int hog = connectUnix(sopt.socketPath);
    ASSERT_GE(hog, 0);
    std::string burst;
    for (int i = 0; burst.size() < 400000; ++i)
        burst += pingLine("h" + std::to_string(i));
    std::thread writer([&] { sendAll(hog, burst); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const int polite = connectUnix(sopt.socketPath);
    ASSERT_GE(polite, 0);
    std::string requests;
    for (int i = 0; i < 5; ++i)
        requests += pingLine("p" + std::to_string(i));
    requests += std::string("{\"schema\":\"") + kRequestSchema +
                "\",\"id\":\"bye\",\"verb\":\"shutdown\"}\n";
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(sendAll(polite, requests));
    std::string carry, line;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(readLine(polite, carry, line)) << "reply " << i;
        EXPECT_TRUE(replyOk(line)) << line;
    }

    // Grace plus slack; past it, unblock the drain by hand so a
    // failure cannot hang the suite.
    while (!returned && std::chrono::steady_clock::now() - start <
                            std::chrono::seconds(3))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_TRUE(returned.load()) << "drain still running";
    shutdown(hog, SHUT_RDWR);
    reactor.join();
    writer.join();
    close(hog);
    close(polite);

    EXPECT_LT(seconds, 3.0);
    EXPECT_GE(seconds, 0.9); // The grace was given.
    EXPECT_EQ(service.metrics().transport().backpressureSheds, 1u);
}

namespace
{

std::string
firstLineOf(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

} // namespace

// harmoniad binds its listeners before it builds the Service. A client
// that connects and sends in that window waits in the listen backlog,
// then gets the reply `harmoniad --stdio` gives the same line: the
// first line of the checked-in wire stream (serve_wire_golden pins the
// daemon to that file).
TEST(ServeReactor, ServesAClientThatConnectedBeforeTheServiceWasBuilt)
{
    const std::string request =
        firstLineOf(HARMONIA_GOLDEN_DIR "/serve_wire.requests.jsonl");
    const std::string expected =
        firstLineOf(HARMONIA_GOLDEN_DIR "/serve_wire.responses.jsonl");
    ASSERT_NE(request.find("\"evaluate\""), std::string::npos);
    ASSERT_FALSE(expected.empty());

    ServerOptions sopt;
    sopt.socketPath = "/tmp/harmonia_reactor_" + std::to_string(getpid()) +
                      "_early.sock";
    sopt.quiet = true;
    Server server(sopt);
    ASSERT_TRUE(server.start().ok());
    const int fd = connectUnix(sopt.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, request + "\n"));

    Service service(ServiceOptions{});
    std::thread reactor([&] { server.run(service); });
    std::string carry, reply, bye;
    const bool replied = readLine(fd, carry, reply);
    sendAll(fd, std::string("{\"schema\":\"") + kRequestSchema +
                    "\",\"id\":\"bye\",\"verb\":\"shutdown\"}\n");
    readLine(fd, carry, bye);
    reactor.join();
    close(fd);
    ASSERT_TRUE(replied);
    EXPECT_EQ(reply, expected);
}

// harmoniad's exit path when the Service cannot be built after the
// bind: the Server, never run, still closes and unlinks its socket.
TEST(ServeReactor, UnrunServerUnlinksItsSocket)
{
    ServerOptions sopt;
    sopt.socketPath = "/tmp/harmonia_reactor_" + std::to_string(getpid()) +
                      "_unrun.sock";
    sopt.quiet = true;
    {
        Server server(sopt);
        ASSERT_TRUE(server.start().ok());
        ASSERT_EQ(access(sopt.socketPath.c_str(), F_OK), 0);
        ServiceOptions bad;
        bad.defaultDevice = "no-such-device";
        EXPECT_THROW(Service{bad}, ConfigError);
    }
    EXPECT_NE(access(sopt.socketPath.c_str(), F_OK), 0);
}

// --- wake-up precision --------------------------------------------------

// A deadline a few microseconds away sleeps for exactly that, not for
// a millisecond.
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

} // namespace
