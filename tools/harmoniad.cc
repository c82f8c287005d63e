/**
 * @file
 * harmoniad — the batched Harmonia evaluation daemon.
 *
 * Serves the harmonia.request/1 NDJSON protocol (docs/SERVING.md)
 * over a Unix-domain socket, a TCP listener, or stdin/stdout with
 * --stdio (the mode tests and CI pipelines use). Verbs: evaluate,
 * govern, sweep, stats, ping, shutdown.
 *
 * Usage:
 *   harmoniad --socket PATH [options]
 *   harmoniad --tcp HOST:PORT [options]
 *   harmoniad --stdio [options]
 *
 *   --socket PATH     Listen on a Unix-domain socket at PATH.
 *   --tcp HOST:PORT   Listen on a TCP socket (IPv4 or "localhost";
 *                     port 0 picks an ephemeral port, printed on
 *                     startup). May be combined with --socket; both
 *                     listeners feed the same reactor.
 *   --stdio           Serve stdin -> stdout instead of sockets.
 *   --device NAME     Registered device profile backing device-less
 *                     requests (default hd7970; see --list-devices).
 *                     Requests carrying an explicit "device" field
 *                     still select their own profile per request.
 *   --list-devices    Print the registered device names and exit.
 *   --jobs N          Worker threads for predictor training (or
 *                     HARMONIA_JOBS; default 1).
 *   --coalesce-us N   Coalescing window in microseconds: -1 =
 *                     adaptive (default), 0 = none, N > 0 = fixed.
 *   --max-configs N   Per-request config-list cap (default 1024).
 *   --max-sessions N  Concurrent governor-session cap (default 256).
 *   --max-connections N  Concurrent client connections (default 64);
 *                     further connects get one error reply.
 *   --idle-timeout-ms N  Evict connections with no read/write
 *                     progress for N ms (default 0 = never).
 *   --max-write-buf BYTES  Per-connection cap on buffered unsent
 *                     response bytes before the connection is shed
 *                     (default 8388608).
 *
 * Exit status 0 after a clean drain (SIGTERM/SIGINT, a `shutdown`
 * request, or --stdio EOF); the final metrics snapshot is printed to
 * stderr as one JSON line.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "harmonia/harmonia.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

[[noreturn]] void
usage(int status)
{
    std::cout << "usage: harmoniad (--socket PATH | --tcp HOST:PORT | "
                 "--stdio) [--device NAME]\n"
                 "                 [--list-devices] [--jobs N]\n"
                 "                 [--coalesce-us N] (-1 = adaptive "
                 "(default), 0 = none)\n"
                 "                 [--max-configs N] [--max-sessions N]\n"
                 "                 [--max-connections N] "
                 "[--idle-timeout-ms N]\n"
                 "                 [--max-write-buf BYTES]\n";
    std::exit(status);
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceOptions service;
    ServerOptions server;

    if (const char *env = std::getenv("HARMONIA_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0)
            service.jobs = v;
    }

    auto intArg = [&](int &i, const std::string &flag) {
        if (i + 1 >= argc) {
            std::cerr << "harmoniad: " << flag << " needs a value\n";
            usage(2);
        }
        return std::atoi(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            if (i + 1 >= argc) {
                std::cerr << "harmoniad: --socket needs a value\n";
                usage(2);
            }
            server.socketPath = argv[++i];
        } else if (arg == "--tcp") {
            if (i + 1 >= argc) {
                std::cerr << "harmoniad: --tcp needs HOST:PORT\n";
                usage(2);
            }
            server.tcpBind = argv[++i];
        } else if (arg == "--stdio") {
            server.stdio = true;
        } else if (arg == "--device") {
            if (i + 1 >= argc) {
                std::cerr << "harmoniad: --device needs a value\n";
                usage(2);
            }
            service.defaultDevice = argv[++i];
        } else if (arg == "--list-devices") {
            for (const std::string &name : Device::names())
                std::cout << name << '\n';
            return 0;
        } else if (arg == "--jobs") {
            service.jobs = std::max(1, intArg(i, arg));
        } else if (arg == "--coalesce-us") {
            // Any negative value selects the adaptive window.
            server.coalesceMicros = std::max(-1, intArg(i, arg));
        } else if (arg == "--max-configs") {
            service.maxConfigsPerRequest =
                static_cast<size_t>(std::max(1, intArg(i, arg)));
        } else if (arg == "--max-sessions") {
            service.maxSessions =
                static_cast<size_t>(std::max(1, intArg(i, arg)));
        } else if (arg == "--max-connections") {
            server.maxConnections = std::max(1, intArg(i, arg));
        } else if (arg == "--idle-timeout-ms") {
            server.idleTimeoutMillis = std::max(0, intArg(i, arg));
        } else if (arg == "--max-write-buf") {
            server.maxWriteBufferBytes =
                static_cast<size_t>(std::max(1, intArg(i, arg)));
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "harmoniad: unknown argument '" << arg
                      << "'\n";
            usage(2);
        }
    }

    if (!server.stdio && server.socketPath.empty() &&
        server.tcpBind.empty()) {
        std::cerr << "harmoniad: need --socket PATH, --tcp HOST:PORT, "
                     "or --stdio\n";
        usage(2);
    }
    if (server.stdio &&
        (!server.socketPath.empty() || !server.tcpBind.empty())) {
        std::cerr << "harmoniad: --stdio excludes --socket/--tcp\n";
        usage(2);
    }
    if (!service.defaultDevice.empty() &&
        !DeviceRegistry::instance().contains(service.defaultDevice)) {
        std::cerr << "harmoniad: unknown device '"
                  << service.defaultDevice << "' (have:";
        for (const std::string &name : Device::names())
            std::cerr << ' ' << name;
        std::cerr << ")\n";
        return 2;
    }

    Service svc(service);
    Server loop(svc, server);
    return loop.run();
}
