#!/usr/bin/env bash
# End-to-end smoke test for the serving stack: start harmoniad on a
# Unix socket plus a TCP listener, drive ~100 mixed-verb requests
# through harmonia_client on each transport — the TCP stage fans the
# load across 16 concurrent connections so the reactor's
# cross-connection micro-batching path is exercised — assert zero
# error replies, then verify the daemon drains cleanly on SIGTERM.
# The drain writes the persistent point-cache snapshot (--cache-file),
# and a second daemon lifetime replays an identical burst against it
# to prove a warm restart actually serves from the snapshot
# (cache.persistent warm_hits > 0 in the stats verb) and restored every
# point the first lifetime's cache held.
# Used by ctest (serve_smoke) and the CI smoke stage.
#
# usage: serve_smoke.sh /path/to/harmoniad /path/to/harmonia_client
set -eu

HARMONIAD=${1:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}
CLIENT=${2:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve_smoke.XXXXXX")
SOCK="$WORK/harmoniad.sock"
SNAP="$WORK/cache.snap"
DAEMON_LOG="$WORK/daemon.log"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Wait for the daemon socket, failing fast if the daemon dies first.
wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "serve_smoke: daemon died during startup" >&2
            cat "$DAEMON_LOG" >&2
            exit 1
        }
        sleep 0.1
    done
    echo "serve_smoke: socket never appeared" >&2
    exit 1
}

# hd7970_stat STATS_OUTPUT PREFIX: the number following PREFIX inside
# the stats reply's devices.active.hd7970 object (which nests objects
# one level deep).
hd7970_stat() {
    printf '%s\n' "$1" |
        grep -oE '"hd7970":\{([^{}]|\{[^{}]*\})*\}' | head -n 1 |
        sed -n "s/.*$2\([0-9][0-9]*\).*/\1/p"
}

# SIGTERM the daemon and require a clean exit plus the drain marker.
drain_daemon() {
    kill -TERM "$DAEMON_PID"
    DRAIN_OK=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            DRAIN_OK=1
            break
        fi
        sleep 0.1
    done
    if [ "$DRAIN_OK" != 1 ]; then
        echo "serve_smoke: daemon did not exit after SIGTERM" >&2
        exit 1
    fi
    wait "$DAEMON_PID" && STATUS=0 || STATUS=$?
    if [ "$STATUS" != 0 ]; then
        echo "serve_smoke: daemon exited with status $STATUS" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
    fi
    grep -q "drained, shutting down" "$DAEMON_LOG" || {
        echo "serve_smoke: no drain marker in daemon log" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
    }
}

# Both listeners feed one reactor; port 0 = ephemeral, the daemon
# prints the resolved port on startup. The SIGTERM drain at the end of
# this lifetime writes the point caches to $SNAP.
"$HARMONIAD" --socket "$SOCK" --tcp 127.0.0.1:0 --jobs 2 \
    --cache-file "$SNAP" 2>"$DAEMON_LOG" &
DAEMON_PID=$!

# Wait for the socket to appear (daemon startup includes building the
# device model).
wait_for_socket

# Mixed-verb load: the client exits non-zero on any error reply.
"$CLIENT" --socket "$SOCK" --requests 100 --mix mixed --configs 8 \
    --kernels 4 --stats

# A second, pure-evaluate burst exercises the micro-batcher. The fixed
# seed makes the request set reproducible: the warm-restart stage
# below replays exactly this burst against the drained snapshot.
"$CLIENT" --socket "$SOCK" --requests 40 --mix evaluate --configs 16 \
    --kernels 2 --seed 7 --quiet

# TCP stage: the same daemon over its TCP listener, with the load
# fanned across 16 concurrent connections — consecutive requests of
# one coalescing cohort arrive on different sockets, so zero error
# replies here covers the cross-connection fusion path end to end.
TCP_PORT=$(sed -n 's/.*listening on tcp [0-9.]*:\([0-9][0-9]*\).*/\1/p' \
    "$DAEMON_LOG" | head -n 1)
if [ -z "$TCP_PORT" ]; then
    echo "serve_smoke: no TCP port in daemon log" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
"$CLIENT" --tcp "127.0.0.1:$TCP_PORT" --clients 16 --requests 100 \
    --mix mixed --configs 8 --kernels 4 --stats
# Its stats reply is the last word before the drain: the point cache
# it reports is exactly what the snapshot must hold.
FINAL_OUT=$("$CLIENT" --tcp "127.0.0.1:$TCP_PORT" --clients 16 \
    --requests 48 --mix evaluate --configs 16 --kernels 2 --quiet --stats)
FINAL_POINTS=$(hd7970_stat "$FINAL_OUT" '"point_cache_points":')

# Graceful SIGTERM drain: daemon must exit 0, report its shutdown
# stats line, and leave the persistent snapshot behind.
drain_daemon
if [ ! -s "$SNAP" ]; then
    echo "serve_smoke: drain left no snapshot at $SNAP" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi

# Warm-restart stage: a second daemon lifetime on the same
# --cache-file replays the seeded evaluate burst — every point it
# needs was drained by the first lifetime, so the stats verb must
# report snapshot hits (cache.persistent warm_hits > 0).
DAEMON_LOG="$WORK/daemon_warm.log"
"$HARMONIAD" --socket "$SOCK" --jobs 2 --cache-file "$SNAP" \
    2>"$DAEMON_LOG" &
DAEMON_PID=$!
wait_for_socket

WARM_OUT=$("$CLIENT" --socket "$SOCK" --requests 40 --mix evaluate \
    --configs 16 --kernels 2 --seed 7 --quiet --stats)
WARM_HITS=$(printf '%s\n' "$WARM_OUT" |
    sed -n 's/.*"warm_hits"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' |
    head -n 1)
if [ -z "$WARM_HITS" ] || [ "$WARM_HITS" -eq 0 ]; then
    echo "serve_smoke: warm restart served no snapshot hits" >&2
    printf '%s\n' "$WARM_OUT" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
echo "serve_smoke: warm restart served $WARM_HITS snapshot hits"

# The drain must have persisted every point the first lifetime held:
# the restored section's point count equals its final point cache.
WARM_POINTS=$(hd7970_stat "$WARM_OUT" '"snapshot":{"entries":[0-9]*,"points":')
if [ -z "$FINAL_POINTS" ] || [ "$FINAL_POINTS" -eq 0 ] ||
    [ "$WARM_POINTS" != "$FINAL_POINTS" ]; then
    echo "serve_smoke: restored ${WARM_POINTS:-?} hd7970 snapshot" \
        "points, first lifetime held ${FINAL_POINTS:-?}" >&2
    printf '%s\n' "$FINAL_OUT" "$WARM_OUT" >&2
    exit 1
fi
echo "serve_smoke: snapshot restored all $WARM_POINTS hd7970 points"

drain_daemon

echo "serve_smoke: OK"
