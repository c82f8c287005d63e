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

/**
 * Bytes one wake-up reads from one connection, in kReadChunkBytes
 * reads. Bounding it keeps the replies one wake-up queues for a
 * pipelining client to what this much request text asks for.
 */
constexpr size_t kReadChunkBytes = 4096;
constexpr size_t kReadBudgetBytes = 16 * kReadChunkBytes;

/** Re-check period while draining toward shutdown. */
constexpr long long kDrainTickMicros = 10000;

/** A drain closes a connection whose unsent replies have not shrunk
 * for this long: its peer has stopped reading and would hold the exit
 * forever. */
constexpr long long kDrainStallMicros = 1000000;

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
                    "null",
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
        conn.lastActivityMicros = nowMicros();
        service_.metricsMut().transport().onAccept();
    }
}

void
Server::serveLine(Conn &conn, std::string_view line)
{
    conn.outBuf += service_.processLine(line);
    conn.outBuf += '\n';
}

void
Server::readConn(Conn &conn)
{
    if (conn.fd < 0)
        return;
    char buf[kReadChunkBytes];
    size_t budget = kReadBudgetBytes;
    while (budget > 0) {
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
        budget -= std::min(budget, static_cast<size_t>(n));
        conn.inBuf.append(buf, static_cast<size_t>(n));
        conn.lastActivityMicros = nowMicros();
        // A single line larger than the request cap would otherwise
        // buffer without bound; reject it early and resynchronize at
        // the next newline.
        if (!conn.oversized &&
            conn.inBuf.find('\n') == std::string::npos &&
            conn.inBuf.size() > service_.options().maxRequestBytes) {
            conn.outBuf += makeErrorResponse(
                "null",
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
        // A peer whose replies pile up past the write cap even after a
        // flush is shed now, before they grow any further.
        if (!conn.stdio &&
            conn.unsentBytes() > options_.maxWriteBufferBytes) {
            flushConn(conn);
            if (conn.unsentBytes() > options_.maxWriteBufferBytes) {
                closeConn(conn, CloseReason::BackpressureShed);
                return;
            }
        }
        const size_t nl = conn.inBuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        // Served where it sits in the read buffer, not copied out.
        std::string_view line(conn.inBuf.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        start = nl + 1;
        if (conn.oversized) {
            conn.oversized = false; // Resynchronized; drop the tail.
            continue;
        }
        if (!line.empty())
            serveLine(conn, line);
    }
    conn.inBuf.erase(0, start);

    // A final unterminated line at EOF still counts as a request.
    if (conn.eof && !conn.inBuf.empty() && !conn.oversized) {
        serveLine(conn, conn.inBuf);
        conn.inBuf.clear();
    }
    flushConn(conn);
    enforceWriteCap(conn);
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

void
Server::shedStalledDrains(long long nowUs)
{
    for (const auto &conn : conns_) {
        if (conn->stdio || conn->fd < 0 || conn->unsentBytes() == 0)
            continue;
        if (conn->unsentBytes() < conn->drainUnsent) {
            conn->drainUnsent = conn->unsentBytes();
            conn->drainProgressMicros = nowUs;
        } else if (nowUs - conn->drainProgressMicros >= kDrainStallMicros) {
            closeConn(*conn, CloseReason::BackpressureShed);
        }
    }
}

void
Server::closeFinished()
{
    for (const auto &conn : conns_) {
        if (conn->fd >= 0 && conn->eof && conn->unsentBytes() == 0)
            closeConn(*conn, CloseReason::Disconnect);
    }
}

int
Server::run()
{
    if (const Status s = start(); !s.ok()) {
        std::cerr << "harmoniad: " << s.message() << '\n';
        return 1;
    }
    while (true) {
        // Drain condition: stop was requested (signal, shutdown verb,
        // or stdio EOF) and every response to a request already read
        // has been flushed.
        const bool draining =
            stopRequested_ || service_.shutdownRequested() ||
            (options_.stdio && conns_.front()->eof);
        if (draining) {
            for (const auto &conn : conns_)
                flushConn(*conn);
            shedStalledDrains(nowMicros());
            const bool flushed = std::all_of(
                conns_.begin(), conns_.end(), [](const auto &c) {
                    return c->outFd < 0 || c->unsentBytes() == 0;
                });
            if (flushed)
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
            // A connection with unsent replies is not read from: its
            // peer must take what it asked for before it asks again.
            const bool wantOut = conn.unsentBytes() > 0;
            const bool wantIn =
                conn.fd >= 0 && !conn.eof && !draining && !wantOut;
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

        // Sleep until the nearest idle-eviction deadline or (while
        // draining) a short re-check tick. Idle with neither: block
        // indefinitely. ppoll() takes the deadline to the microsecond.
        const long long pollStart = nowMicros();
        long long wakeAtUs = -1;
        if (options_.idleTimeoutMillis > 0) {
            const long long limitUs =
                static_cast<long long>(options_.idleTimeoutMillis) *
                1000;
            for (const auto &conn : conns_) {
                if (conn->stdio || conn->fd < 0)
                    continue;
                const long long t = conn->lastActivityMicros + limitUs;
                if (wakeAtUs < 0 || t < wakeAtUs)
                    wakeAtUs = t;
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
                    readConn(*conns_[ci]);
            }
        }

        evictIdle(nowMicros());
        closeFinished();
    }

    JsonWriter stats;
    service_.writeStats(stats);
    std::cerr << "harmoniad: drained, shutting down\n"
              << stats.take() << '\n';
    return 0;
}

} // namespace harmonia::serve
