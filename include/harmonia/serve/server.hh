/**
 * @file
 * harmoniad's I/O front-end: a single-threaded ppoll() reactor over a
 * Unix-domain listener, a TCP listener, or stdin/stdout. Each request
 * line is handed to Service::processLine as soon as a wake-up has read
 * it, in arrival order; its reply is queued on its own connection.
 *
 * Threading model: all socket I/O, request parsing, model evaluation
 * and response routing happen on one thread; a lattice run never
 * splits, and harmoniad --jobs reaches only predictor training, which
 * fans out inside Service::processLine. This keeps per-connection
 * response ordering trivially correct and makes the daemon's
 * observable behaviour a pure function of the request streams.
 *
 * Reads are bounded: one wake-up reads at most a fixed budget from
 * each connection, and a connection with unsent replies is not read
 * from until they are flushed. A client that pipelines thousands of
 * requests is therefore served at the pace it reads its replies,
 * instead of piling them all into its write buffer at once.
 *
 * Containment: every connection is non-blocking with its own read
 * and write buffers. Partial writes are parked and re-armed with
 * POLLOUT; a reader that stops draining accumulates output only up
 * to ServerOptions::maxWriteBufferBytes before the connection is
 * shed; a connection idle past the (optional) idle timeout is
 * evicted; a malformed or oversized line earns a structured error
 * reply on that connection only. No client behaviour can stall
 * another connection's replies beyond the requests one wake-up has
 * already read.
 *
 * Shutdown: SIGTERM/SIGINT (via a self-pipe) or a `shutdown` request
 * stop the listeners, answer every request already read, flush every
 * buffered response, print the metrics snapshot to stderr, and exit 0.
 * A socket peer that stops reading cannot hold the drain: once its
 * unsent replies have not shrunk for a second, it is shed (counted as
 * a backpressure shed) and the drain goes on without it.
 */

#ifndef HARMONIA_SERVE_SERVER_HH
#define HARMONIA_SERVE_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <poll.h>

#include "harmonia/serve/service.hh"

namespace harmonia::serve
{

/** Server (transport-level) configuration. */
struct ServerOptions
{
    /** Unix-domain socket path; empty = no Unix listener. */
    std::string socketPath;

    /**
     * TCP listen address as "HOST:PORT" (IPv4 dotted quad or
     * "localhost"; port 0 picks an ephemeral port, readable from
     * Server::tcpPort() after start()). Empty = no TCP listener. May
     * be combined with socketPath; both listeners feed one reactor.
     */
    std::string tcpBind;

    /** Serve stdin -> stdout instead of sockets (tests/CI). */
    bool stdio = false;

    /** stdio-mode file descriptors (overridable so tests can run the
     * stdio transport over pipes inside one process). */
    int stdioReadFd = 0;
    int stdioWriteFd = 1;

    /** Max simultaneous client connections (across both listeners).
     * Further connects get one resource_exhausted reply, then close. */
    int maxConnections = 64;

    /**
     * Evict a connection with no read/write progress for this long
     * (covers half-open peers and stalled readers); 0 disables. The
     * stdio pair is exempt.
     */
    int idleTimeoutMillis = 0;

    /**
     * Per-connection cap on buffered unsent response bytes. A client
     * that stops reading while requesting more is shed (its socket
     * closed, its counters ticked) without disturbing anyone else.
     * The stdio pair is exempt.
     */
    size_t maxWriteBufferBytes = 8u << 20;

    /** Write nothing to stderr: no listen lines, no start or ppoll
     * error, no drain snapshot (in-process tests and exhibits). */
    bool quiet = false;
};

/** The reactor. run() blocks until shutdown; returns exit code. */
class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Install signal handling and bind the configured listeners; no
     * Service is needed yet. Idempotent; run() calls it if it has not
     * been called. Exposed separately so a caller can listen before
     * it builds the Service (harmoniad does: clients that connect
     * meanwhile wait in the listen backlog), or learn tcpPort() before
     * it spins run() on a thread (the serve_latency exhibit).
     */
    Status start();

    /** Serve @p service until EOF/SIGTERM/shutdown-verb; 0 on clean
     * drain. */
    int run(Service &service);

    /** Bound TCP port after start() (0 when no TCP listener). */
    int tcpPort() const { return tcpPort_; }

  private:
    /** One client byte stream (a socket, or the stdio pair). */
    struct Conn
    {
        int fd = -1;    ///< Read side.
        int outFd = -1; ///< Write side (== fd except in stdio mode).
        bool tcp = false;   ///< Accepted from the TCP listener.
        bool stdio = false; ///< The stdio pair (exempt from eviction).
        std::string inBuf;
        std::string outBuf;
        size_t outOff = 0; ///< Sent prefix of outBuf (write cursor).
        long long lastActivityMicros = 0;
        bool eof = false;
        bool oversized = false; ///< Discarding until next newline.
        /** While draining: the fewest unsent bytes seen, and when. */
        size_t drainUnsent = SIZE_MAX;
        long long drainProgressMicros = 0;

        size_t unsentBytes() const { return outBuf.size() - outOff; }
    };

    /** Why a connection is being closed (selects the counter). */
    enum class CloseReason
    {
        Disconnect,
        IdleTimeout,
        BackpressureShed,
    };

    bool setupSignals();
    Status setupUnixListener();
    Status setupTcpListener();
    void acceptClients(int listenFd, bool tcp);
    size_t allocConnSlot();
    void closeConn(Conn &conn, CloseReason reason);
    /** Read what one wake-up may from @p conn and serve its complete
     * lines; @p peerClosed (the peer shut its end) reads on to EOF. */
    void readConn(Conn &conn, bool peerClosed);
    void serveLine(Conn &conn, std::string_view line);
    void flushConn(Conn &conn);
    void enforceWriteCap(Conn &conn);
    void evictIdle(long long nowUs);
    /** While draining, shed each connection whose unsent replies have
     * not shrunk for kDrainStallMicros. */
    void shedStalledDrains(long long nowUs);
    void closeFinished();

    Service *service_ = nullptr; ///< Set by run().
    ServerOptions options_;
    bool started_ = false;
    int listenFd_ = -1;    ///< Unix-domain listener.
    int tcpListenFd_ = -1; ///< TCP listener.
    int tcpPort_ = 0;
    int signalFd_ = -1; ///< Read end of the self-pipe.
    bool stopRequested_ = false;
    std::vector<std::unique_ptr<Conn>> conns_;

    // run()'s ppoll set, rebuilt each pass in place (no allocation once
    // warm): the descriptors and, per descriptor, its conns_ index.
    std::vector<pollfd> pollFds_;
    std::vector<size_t> pollConn_;
};

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_SERVER_HH
