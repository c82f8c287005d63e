/**
 * @file
 * harmoniad's I/O front-end: a single-threaded ppoll() reactor over a
 * Unix-domain listener, a TCP listener, or stdin/stdout, feeding
 * request lines from every connection into the Service in coalescing
 * windows.
 *
 * Threading model: all socket I/O, request parsing, model evaluation
 * and response routing happen on one thread; a lattice run never
 * splits, and harmoniad --jobs reaches only predictor training, which
 * fans out inside Service::processBatch. This keeps per-connection
 * response ordering trivially correct and makes the daemon's
 * observable behaviour a pure function of the request streams.
 *
 * Micro-batching: when a request line arrives, the loop holds it for
 * an adaptive window — scaled from an EWMA of recent batch service
 * times, capped at a few milliseconds — so that concurrent clients'
 * requests land in the same Service batch and coalesce into shared
 * lattice runs. The window spans *connections*: lines read from N
 * sockets in one wake-up form one batch, so same-(kernel, iteration)
 * evaluates from different clients fuse into a single lattice run
 * (the `stats` verb reports the cross-connection fusion counters).
 * An idle loop blocks in ppoll() indefinitely; the window only ever
 * delays work that is already queued behind other work. The sleep
 * ends on the window's deadline to the microsecond (ns timeout, 1 ns
 * timer slack), so a few-microsecond window costs a few microseconds.
 *
 * Containment: every connection is non-blocking with its own read
 * and write buffers. Partial writes are parked and re-armed with
 * POLLOUT; a reader that stops draining accumulates output only up
 * to ServerOptions::maxWriteBufferBytes before the connection is
 * shed; a connection idle past the (optional) idle timeout is
 * evicted; a malformed or oversized line earns a structured error
 * reply on that connection only. No client behaviour can stall
 * another connection's replies beyond the shared coalescing window.
 *
 * Shutdown: SIGTERM/SIGINT (via a self-pipe) or a `shutdown` request
 * stop the listeners, drain every buffered request and response,
 * print the metrics snapshot to stderr, and exit 0.
 */

#ifndef HARMONIA_SERVE_SERVER_HH
#define HARMONIA_SERVE_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

    /**
     * Fixed coalescing window in microseconds; <0 selects the
     * adaptive policy, 0 disables coalescing (process immediately).
     */
    int coalesceMicros = -1;

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
};

/** The reactor. run() blocks until shutdown; returns exit code. */
class Server
{
  public:
    Server(Service &service, ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Install signal handling and bind the configured listeners.
     * Idempotent; run() calls it if it has not been called. Exposed
     * separately so a caller can learn tcpPort() (and only then spin
     * run() on a thread, as the serve_latency exhibit does).
     */
    Status start();

    /**
     * Serve until EOF/SIGTERM/shutdown-verb; 0 on clean drain. Sets
     * the calling thread's timer slack to 1 ns for precise wake-ups.
     */
    int run();

    /** Bound TCP port after start() (0 when no TCP listener). */
    int tcpPort() const { return tcpPort_; }

  private:
    /** One client byte stream (a socket, or the stdio pair). */
    struct Conn
    {
        int fd = -1;    ///< Read side.
        int outFd = -1; ///< Write side (== fd except in stdio mode).
        uint64_t id = 0;///< Origin id for cross-connection stats.
        bool tcp = false;   ///< Accepted from the TCP listener.
        bool stdio = false; ///< The stdio pair (exempt from eviction).
        std::string inBuf;
        std::string outBuf;
        size_t outOff = 0; ///< Sent prefix of outBuf (write cursor).
        long long lastActivityMicros = 0;
        bool eof = false;
        bool oversized = false; ///< Discarding until next newline.

        size_t unsentBytes() const { return outBuf.size() - outOff; }
    };

    /** A complete request line awaiting the next batch. */
    struct PendingLine
    {
        size_t conn;
        std::string line;
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
    void readConn(size_t idx);
    void flushConn(Conn &conn);
    void enforceWriteCap(Conn &conn);
    void evictIdle(long long nowUs);
    int currentWindowMicros() const;
    void processPending();
    void closeFinished();

    Service &service_;
    ServerOptions options_;
    bool started_ = false;
    int listenFd_ = -1;    ///< Unix-domain listener.
    int tcpListenFd_ = -1; ///< TCP listener.
    int tcpPort_ = 0;
    int signalFd_ = -1; ///< Read end of the self-pipe.
    bool stopRequested_ = false;
    uint64_t nextConnId_ = 1;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<PendingLine> pending_;
    double serviceEwmaMicros_ = 0.0;
    bool windowOpen_ = false;
    long long windowDeadlineMicros_ = 0; ///< Monotonic clock stamp.
};

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_SERVER_HH
