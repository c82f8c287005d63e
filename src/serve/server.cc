#include "harmonia/serve/server.hh"

#include "serve/wake.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace harmonia::serve
{

namespace
{

/** Write end of the self-pipe; async-signal-safe signal forwarding. */
volatile int g_signalPipeWrite = -1;

void
onSignal(int)
{
    if (g_signalPipeWrite >= 0) {
        const char byte = 1;
        // The pipe is non-blocking; a full pipe already means a
        // wakeup is pending, so a failed write is fine.
        [[maybe_unused]] const ssize_t n =
            write(g_signalPipeWrite, &byte, 1);
    }
}

bool
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

long long
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The hard cap on the adaptive coalescing window. */
constexpr int kMaxWindowMicros = 2000;

/** Re-check period while draining toward shutdown. */
constexpr long long kDrainTickMicros = 10000;

/** Compact a partially-flushed write buffer once the sent prefix
 * dominates; keeps flushing O(bytes) instead of O(bytes^2). */
constexpr size_t kCompactThresholdBytes = 1u << 20;

} // namespace

const timespec *
wakeTimeout(long long nowUs, long long wakeAtUs, bool draining,
            timespec &storage)
{
    if (!draining && wakeAtUs < 0)
        return nullptr;
    const long long sleepUs =
        draining ? kDrainTickMicros : std::max(0LL, wakeAtUs - nowUs);
    storage.tv_sec = static_cast<time_t>(sleepUs / 1000000);
    storage.tv_nsec = static_cast<long>(sleepUs % 1000000 * 1000);
    return &storage;
}

Server::Server(Service &service, ServerOptions options)
    : service_(service), options_(std::move(options))
{
}

Server::~Server()
{
    for (const auto &conn : conns_) {
        if (conn->fd >= 0 && !conn->stdio)
            close(conn->fd);
    }
    if (listenFd_ >= 0) {
        close(listenFd_);
        unlink(options_.socketPath.c_str());
    }
    if (tcpListenFd_ >= 0)
        close(tcpListenFd_);
    if (signalFd_ >= 0)
        close(signalFd_);
    if (g_signalPipeWrite >= 0) {
        close(g_signalPipeWrite);
        g_signalPipeWrite = -1;
    }
}

bool
Server::setupSignals()
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    signalFd_ = fds[0];
    g_signalPipeWrite = fds[1];
    if (!setNonBlocking(fds[0]) || !setNonBlocking(fds[1]))
        return false;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGTERM, &sa, nullptr) != 0 ||
        sigaction(SIGINT, &sa, nullptr) != 0)
        return false;
    signal(SIGPIPE, SIG_IGN);
    return true;
}

Status
Server::setupUnixListener()
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        return Status::invalidArgument("socket path too long: " +
                                       options_.socketPath);
    }
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        return Status::unavailable(std::string("socket(): ") +
                                   std::strerror(errno));
    }
    unlink(options_.socketPath.c_str());
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listenFd_, 128) != 0 || !setNonBlocking(listenFd_)) {
        return Status::unavailable("cannot listen on " +
                                   options_.socketPath + ": " +
                                   std::strerror(errno));
    }
    return Status::okStatus();
}

Status
Server::setupTcpListener()
{
    const size_t colon = options_.tcpBind.rfind(':');
    if (colon == std::string::npos) {
        return Status::invalidArgument("--tcp wants HOST:PORT, got \"" +
                                       options_.tcpBind + "\"");
    }
    std::string host = options_.tcpBind.substr(0, colon);
    const std::string portStr = options_.tcpBind.substr(colon + 1);
    if (host.empty())
        host = "0.0.0.0";
    if (host == "localhost")
        host = "127.0.0.1";
    char *end = nullptr;
    const long port = std::strtol(portStr.c_str(), &end, 10);
    if (portStr.empty() || end == nullptr || *end != '\0' ||
        port < 0 || port > 65535) {
        return Status::invalidArgument("bad TCP port \"" + portStr +
                                       "\" (want 0..65535)");
    }

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument(
            "bad TCP host \"" + host +
            "\" (want an IPv4 address or localhost)");
    }

    tcpListenFd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (tcpListenFd_ < 0) {
        return Status::unavailable(std::string("socket(): ") +
                                   std::strerror(errno));
    }
    const int one = 1;
    setsockopt(tcpListenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
    if (bind(tcpListenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(tcpListenFd_, 128) != 0 ||
        !setNonBlocking(tcpListenFd_)) {
        return Status::unavailable("cannot listen on tcp " +
                                   options_.tcpBind + ": " +
                                   std::strerror(errno));
    }

    sockaddr_in bound;
    std::memset(&bound, 0, sizeof(bound));
    socklen_t len = sizeof(bound);
    if (getsockname(tcpListenFd_,
                    reinterpret_cast<sockaddr *>(&bound), &len) == 0)
        tcpPort_ = static_cast<int>(ntohs(bound.sin_port));
    return Status::okStatus();
}

Status
Server::start()
{
    if (started_)
        return Status::okStatus();
    if (!setupSignals())
        return Status::unavailable("signal setup failed");

    if (options_.stdio) {
        if (!options_.socketPath.empty() || !options_.tcpBind.empty())
            return Status::invalidArgument(
                "--stdio excludes --socket/--tcp");
        auto conn = std::make_unique<Conn>();
        conn->fd = options_.stdioReadFd;
        conn->outFd = options_.stdioWriteFd;
        conn->stdio = true;
        conn->id = 0;
        conn->lastActivityMicros = nowMicros();
        setNonBlocking(conn->fd);
        conns_.push_back(std::move(conn));
    } else {
        if (options_.socketPath.empty() && options_.tcpBind.empty())
            return Status::invalidArgument(
                "no transport: want --socket, --tcp, or --stdio");
        if (!options_.socketPath.empty()) {
            if (const Status s = setupUnixListener(); !s.ok())
                return s;
            std::cerr << "harmoniad: listening on "
                      << options_.socketPath << '\n';
        }
        if (!options_.tcpBind.empty()) {
            if (const Status s = setupTcpListener(); !s.ok())
                return s;
            std::cerr << "harmoniad: listening on tcp "
                      << options_.tcpBind.substr(
                             0, options_.tcpBind.rfind(':'))
                      << ':' << tcpPort_ << '\n';
        }
    }
    started_ = true;
    return Status::okStatus();
}

size_t
Server::allocConnSlot()
{
    for (size_t i = 0; i < conns_.size(); ++i) {
        Conn &conn = *conns_[i];
        if (conn.fd >= 0 || conn.stdio || conn.unsentBytes() != 0)
            continue;
        const bool referenced = std::any_of(
            pending_.begin(), pending_.end(),
            [&](const PendingLine &p) { return p.conn == i; });
        if (referenced)
            continue;
        conn = Conn{};
        return i;
    }
    conns_.push_back(std::make_unique<Conn>());
    return conns_.size() - 1;
}

void
Server::closeConn(Conn &conn, CloseReason reason)
{
    if (conn.fd < 0 && conn.outFd < 0)
        return;
    if (!conn.stdio) {
        if (conn.fd >= 0)
            close(conn.fd);
        TransportMetrics &t = service_.metricsMut().transport();
        switch (reason) {
          case CloseReason::Disconnect:
            t.onClose(t.disconnects);
            break;
          case CloseReason::IdleTimeout:
            t.onClose(t.idleTimeouts);
            break;
          case CloseReason::BackpressureShed:
            t.onClose(t.backpressureSheds);
            break;
        }
    }
    conn.fd = -1;
    conn.outFd = -1;
    conn.inBuf.clear();
    conn.outBuf.clear();
    conn.outOff = 0;
    conn.eof = true;
}

void
Server::acceptClients(int listenFd, bool tcp)
{
    while (true) {
        const int fd = accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        if (!setNonBlocking(fd)) {
            close(fd);
            continue;
        }
        const int active = static_cast<int>(std::count_if(
            conns_.begin(), conns_.end(),
            [](const auto &c) { return c->fd >= 0; }));
        if (active >= options_.maxConnections) {
            // Tell the peer why before closing: one structured error
            // line, best-effort (the socket buffer of a fresh
            // connection always has room for it in practice).
            const std::string reply =
                makeErrorResponse(
                    JsonValue(),
                    Status::resourceExhausted(
                        "connection limit (" +
                        std::to_string(options_.maxConnections) +
                        ") reached")) +
                "\n";
            [[maybe_unused]] const ssize_t n =
                write(fd, reply.data(), reply.size());
            close(fd);
            ++service_.metricsMut().transport().rejected;
            continue;
        }
        if (tcp) {
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
            setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one,
                       sizeof(one));
        }
        const size_t slot = allocConnSlot();
        Conn &conn = *conns_[slot];
        conn.fd = fd;
        conn.outFd = fd;
        conn.tcp = tcp;
        conn.id = nextConnId_++;
        conn.lastActivityMicros = nowMicros();
        service_.metricsMut().transport().onAccept();
    }
}

void
Server::readConn(size_t idx)
{
    Conn &conn = *conns_[idx];
    if (conn.fd < 0)
        return;
    char buf[4096];
    while (true) {
        const ssize_t n = read(conn.fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            conn.eof = true;
            break;
        }
        if (n == 0) {
            conn.eof = true;
            break;
        }
        conn.inBuf.append(buf, static_cast<size_t>(n));
        conn.lastActivityMicros = nowMicros();
        // A single line larger than the request cap would otherwise
        // buffer without bound; reject it early and resynchronize at
        // the next newline.
        if (!conn.oversized &&
            conn.inBuf.find('\n') == std::string::npos &&
            conn.inBuf.size() > service_.options().maxRequestBytes) {
            conn.outBuf += makeErrorResponse(
                JsonValue(),
                Status::resourceExhausted(
                    "request line exceeds " +
                    std::to_string(service_.options().maxRequestBytes) +
                    " bytes"));
            conn.outBuf += '\n';
            conn.oversized = true;
            conn.inBuf.clear();
        }
    }

    size_t start = 0;
    while (true) {
        const size_t nl = conn.inBuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = conn.inBuf.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        start = nl + 1;
        if (conn.oversized) {
            conn.oversized = false; // Resynchronized; drop the tail.
            continue;
        }
        if (line.empty())
            continue;
        pending_.push_back(PendingLine{idx, std::move(line)});
    }
    conn.inBuf.erase(0, start);

    // A final unterminated line at EOF still counts as a request.
    if (conn.eof && !conn.inBuf.empty() && !conn.oversized) {
        pending_.push_back(PendingLine{idx, std::move(conn.inBuf)});
        conn.inBuf.clear();
    }
}

void
Server::flushConn(Conn &conn)
{
    if (conn.outFd < 0)
        return;
    while (conn.unsentBytes() > 0) {
        const ssize_t n =
            write(conn.outFd, conn.outBuf.data() + conn.outOff,
                  conn.unsentBytes());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                conn.outBuf.clear(); // Peer gone; drop the rest.
                conn.outOff = 0;
                conn.eof = true;
                return;
            }
            // Partial write parked; POLLOUT re-arms on the next loop
            // pass. Reclaim the sent prefix once it dominates.
            if (conn.outOff > kCompactThresholdBytes &&
                conn.outOff * 2 >= conn.outBuf.size()) {
                conn.outBuf.erase(0, conn.outOff);
                conn.outOff = 0;
            }
            return;
        }
        conn.outOff += static_cast<size_t>(n);
        conn.lastActivityMicros = nowMicros();
    }
    conn.outBuf.clear();
    conn.outOff = 0;
}

void
Server::enforceWriteCap(Conn &conn)
{
    if (conn.stdio || conn.fd < 0)
        return;
    if (conn.unsentBytes() > options_.maxWriteBufferBytes) {
        // The peer requested more output than it is willing to read;
        // shed this connection alone — its buffered bytes are dropped,
        // everyone else keeps streaming.
        closeConn(conn, CloseReason::BackpressureShed);
    }
}

void
Server::evictIdle(long long nowUs)
{
    if (options_.idleTimeoutMillis <= 0)
        return;
    const long long limitUs =
        static_cast<long long>(options_.idleTimeoutMillis) * 1000;
    for (const auto &conn : conns_) {
        if (conn->stdio || conn->fd < 0)
            continue;
        if (nowUs - conn->lastActivityMicros >= limitUs)
            closeConn(*conn, CloseReason::IdleTimeout);
    }
}

int
Server::currentWindowMicros() const
{
    if (options_.coalesceMicros >= 0)
        return options_.coalesceMicros;
    // Adaptive: hold new arrivals for a fraction of the recent batch
    // service time — long enough that requests racing a lattice run
    // join the next batch, short enough to be invisible next to one.
    const int window = static_cast<int>(serviceEwmaMicros_ / 8.0);
    return std::min(kMaxWindowMicros, std::max(0, window));
}

void
Server::processPending()
{
    if (pending_.empty())
        return;
    std::vector<PendingLine> batch;
    batch.swap(pending_);
    windowOpen_ = false;

    std::vector<std::string> lines;
    std::vector<uint64_t> origins;
    lines.reserve(batch.size());
    origins.reserve(batch.size());
    for (PendingLine &p : batch) {
        lines.push_back(std::move(p.line));
        origins.push_back(conns_[p.conn]->id);
    }

    const long long start = nowMicros();
    const std::vector<std::string> responses =
        service_.processBatch(lines, origins);
    const double elapsed = static_cast<double>(nowMicros() - start);
    serviceEwmaMicros_ = serviceEwmaMicros_ == 0.0
                             ? elapsed
                             : 0.75 * serviceEwmaMicros_ +
                                   0.25 * elapsed;

    for (size_t i = 0; i < batch.size(); ++i) {
        Conn &conn = *conns_[batch[i].conn];
        if (conn.outFd < 0)
            continue; // Shed or evicted while its request was queued.
        conn.outBuf += responses[i];
        conn.outBuf += '\n';
    }
    for (const auto &conn : conns_) {
        flushConn(*conn);
        enforceWriteCap(*conn);
    }
}

void
Server::closeFinished()
{
    for (const auto &conn : conns_) {
        if (conn->fd >= 0 && conn->eof && conn->unsentBytes() == 0) {
            const bool pendingInput = std::any_of(
                pending_.begin(), pending_.end(),
                [&](const PendingLine &p) {
                    return conns_[p.conn].get() == conn.get();
                });
            if (pendingInput)
                continue;
            closeConn(*conn, CloseReason::Disconnect);
        }
    }
}

int
Server::run()
{
    if (const Status s = start(); !s.ok()) {
        std::cerr << "harmoniad: " << s.message() << '\n';
        return 1;
    }
    // The adaptive window is a few microseconds; the default 50 us
    // timer slack would stretch every wake-up well past it.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    while (true) {
        // Drain condition: stop was requested (signal, shutdown verb,
        // or stdio EOF) and every buffered request and response has
        // been dealt with.
        const bool draining =
            stopRequested_ || service_.shutdownRequested() ||
            (options_.stdio && conns_.front()->eof);
        if (draining) {
            processPending();
            for (const auto &conn : conns_)
                flushConn(*conn);
            const bool flushed = std::all_of(
                conns_.begin(), conns_.end(), [](const auto &c) {
                    return c->outFd < 0 || c->unsentBytes() == 0;
                });
            if (pending_.empty() && flushed)
                break;
        }

        std::vector<pollfd> fds;
        std::vector<size_t> connOf; // fds index -> conns_ index.
        fds.push_back({signalFd_, POLLIN, 0});
        connOf.push_back(SIZE_MAX);
        size_t unixListenerIdx = SIZE_MAX;
        size_t tcpListenerIdx = SIZE_MAX;
        if (listenFd_ >= 0 && !draining) {
            unixListenerIdx = fds.size();
            fds.push_back({listenFd_, POLLIN, 0});
            connOf.push_back(SIZE_MAX);
        }
        if (tcpListenFd_ >= 0 && !draining) {
            tcpListenerIdx = fds.size();
            fds.push_back({tcpListenFd_, POLLIN, 0});
            connOf.push_back(SIZE_MAX);
        }
        for (size_t i = 0; i < conns_.size(); ++i) {
            Conn &conn = *conns_[i];
            if (conn.fd < 0 && conn.outFd < 0)
                continue;
            const bool wantIn =
                conn.fd >= 0 && !conn.eof && !draining;
            const bool wantOut = conn.unsentBytes() > 0;
            if (conn.fd == conn.outFd) {
                const short events =
                    static_cast<short>((wantIn ? POLLIN : 0) |
                                       (wantOut ? POLLOUT : 0));
                if (events == 0)
                    continue;
                fds.push_back({conn.fd, events, 0});
                connOf.push_back(i);
            } else {
                // stdio: read and write sides are distinct fds.
                if (wantIn) {
                    fds.push_back({conn.fd, POLLIN, 0});
                    connOf.push_back(i);
                }
                if (wantOut) {
                    fds.push_back({conn.outFd, POLLOUT, 0});
                    connOf.push_back(i);
                }
            }
        }

        // Sleep until the earliest of: coalescing-window expiry, the
        // nearest idle-eviction deadline, or (while draining) a short
        // re-check tick. Idle with none of those: block indefinitely.
        // ppoll() takes the deadline to the microsecond; a
        // millisecond timeout would round every window up to 1 ms.
        const long long pollStart = nowMicros();
        long long wakeAtUs = -1;
        auto considerWake = [&](long long t) {
            if (wakeAtUs < 0 || t < wakeAtUs)
                wakeAtUs = t;
        };
        if (windowOpen_)
            considerWake(windowDeadlineMicros_);
        if (options_.idleTimeoutMillis > 0) {
            const long long limitUs =
                static_cast<long long>(options_.idleTimeoutMillis) *
                1000;
            for (const auto &conn : conns_) {
                if (conn->stdio || conn->fd < 0)
                    continue;
                considerWake(conn->lastActivityMicros + limitUs);
            }
        }
        timespec timeout{};
        const int rc = ppoll(
            fds.data(), static_cast<nfds_t>(fds.size()),
            wakeTimeout(pollStart, wakeAtUs, draining, timeout), nullptr);
        if (rc < 0 && errno != EINTR) {
            std::cerr << "harmoniad: ppoll(): " << std::strerror(errno)
                      << '\n';
            return 1;
        }

        if (rc > 0) {
            size_t fdIdx = 0;
            if (fds[fdIdx].revents & POLLIN) {
                char drain[64];
                while (read(signalFd_, drain, sizeof(drain)) > 0) {
                }
                stopRequested_ = true;
            }
            ++fdIdx;
            if (unixListenerIdx != SIZE_MAX &&
                (fds[unixListenerIdx].revents & POLLIN))
                acceptClients(listenFd_, false);
            if (tcpListenerIdx != SIZE_MAX &&
                (fds[tcpListenerIdx].revents & POLLIN))
                acceptClients(tcpListenFd_, true);
            for (fdIdx = 1; fdIdx < fds.size(); ++fdIdx) {
                const size_t ci = connOf[fdIdx];
                if (ci == SIZE_MAX)
                    continue;
                const short revents = fds[fdIdx].revents;
                if (revents & POLLOUT) {
                    flushConn(*conns_[ci]);
                    enforceWriteCap(*conns_[ci]);
                }
                if (revents & (POLLIN | POLLHUP | POLLERR))
                    readConn(ci);
            }
        }

        evictIdle(nowMicros());

        if (!pending_.empty() && !windowOpen_) {
            windowOpen_ = true;
            windowDeadlineMicros_ =
                nowMicros() + currentWindowMicros();
        }
        if (windowOpen_ &&
            (nowMicros() >= windowDeadlineMicros_ || draining ||
             stopRequested_))
            processPending();

        closeFinished();
    }

    std::cerr << "harmoniad: drained, shutting down\n"
              << service_.statsJson().dump() << '\n';
    return 0;
}

} // namespace harmonia::serve
