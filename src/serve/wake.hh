/**
 * @file
 * The reactor's sleep bound: how long one ppoll() pass of
 * harmoniad's event loop may block, at the precision of the
 * coalescing window it is waiting out.
 *
 * Serve-internal (not part of the facade); split out of server.cc so
 * the deadline arithmetic can be unit-tested without a socket.
 */

#ifndef HARMONIA_SERVE_WAKE_HH
#define HARMONIA_SERVE_WAKE_HH

#include <ctime>

namespace harmonia::serve
{

/**
 * The ppoll() timeout for one reactor pass that starts at @p nowUs.
 *
 * @param wakeAtUs the earliest deadline (coalescing-window expiry or
 *        idle eviction) on the same monotonic clock, or <0 for none.
 * @param draining the loop is draining toward shutdown; it re-checks
 *        on a fixed 10 ms tick regardless of deadlines.
 * @param storage receives the timeout when one applies.
 * @return nullptr to block until a descriptor is ready (no deadline),
 *         otherwise &storage: the exact time left to @p wakeAtUs,
 *         zero once it has passed, or the drain tick.
 */
const timespec *wakeTimeout(long long nowUs, long long wakeAtUs,
                            bool draining, timespec &storage);

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_WAKE_HH
