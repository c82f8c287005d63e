#!/usr/bin/env bash
# End-to-end smoke test for the serving stack: start harmoniad on a
# Unix socket plus a TCP listener, drive ~100 mixed-verb requests
# through harmonia_client on each transport — the TCP stage fans the
# load across 16 concurrent connections, so the reactor serves many
# connections in one wake-up — assert zero error replies, then verify
# the daemon drains cleanly on SIGTERM. A memory stage starts a fresh
# daemon and walks 1,000 new (kernel, iteration) keys through it,
# requiring its resident memory to stay flat: the daemon keeps no
# evaluated points. A pipelining stage sends 20,000 evaluates from one
# unpaced client, which must be served, not shed.
# Used by ctest (serve_smoke) and the CI smoke stage.
#
# usage: serve_smoke.sh /path/to/harmoniad /path/to/harmonia_client
set -eu

HARMONIAD=${1:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}
CLIENT=${2:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve_smoke.XXXXXX")
SOCK="$WORK/harmoniad.sock"
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
# prints the resolved port on startup.
"$HARMONIAD" --socket "$SOCK" --tcp 127.0.0.1:0 --jobs 2 \
    2>"$DAEMON_LOG" &
DAEMON_PID=$!

# Wait for the socket to appear (daemon startup includes building the
# device model).
wait_for_socket

# Mixed-verb load: the client exits non-zero on any error reply.
"$CLIENT" --socket "$SOCK" --requests 100 --mix mixed --configs 8 \
    --kernels 4 --stats

# A second, pure-evaluate burst, sent all at once. The fixed seed makes
# the request set reproducible.
"$CLIENT" --socket "$SOCK" --requests 40 --mix evaluate --configs 16 \
    --kernels 2 --seed 7 --quiet

# TCP stage: the same daemon over its TCP listener, with the load
# fanned across 16 concurrent connections — consecutive requests
# arrive on different sockets, so zero error replies here covers
# per-connection reply routing end to end.
TCP_PORT=$(sed -n 's/.*listening on tcp [0-9.]*:\([0-9][0-9]*\).*/\1/p' \
    "$DAEMON_LOG" | head -n 1)
if [ -z "$TCP_PORT" ]; then
    echo "serve_smoke: no TCP port in daemon log" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
"$CLIENT" --tcp "127.0.0.1:$TCP_PORT" --clients 16 --requests 100 \
    --mix mixed --configs 8 --kernels 4 --stats

# Graceful SIGTERM drain: daemon must exit 0 and report its shutdown
# stats line.
drain_daemon

# Memory stage: a fresh daemon, warmed with 20 requests, then 1,000
# evaluates of 128 configs that each name a new iteration (--kernels
# 1). Nothing may accumulate per key, so VmRSS must grow by
# less than 8 MB. The walk is paced (--rate): an unpaced burst
# parks megabytes in socket receive and send buffers, which is not
# what this stage measures.
SOCK="$WORK/rss.sock"
DAEMON_LOG="$WORK/rss.log"
"$HARMONIAD" --socket "$SOCK" 2>"$DAEMON_LOG" &
DAEMON_PID=$!
wait_for_socket
vm_rss_kb() {
    sed -n 's/^VmRSS:[[:space:]]*\([0-9][0-9]*\) kB$/\1/p' \
        "/proc/$DAEMON_PID/status"
}
"$CLIENT" --socket "$SOCK" --requests 20 --mix evaluate --configs 128 \
    --kernels 1 --quiet
RSS_BEFORE=$(vm_rss_kb)
"$CLIENT" --socket "$SOCK" --requests 1000 --mix evaluate --configs 128 \
    --kernels 1 --rate 1000 --quiet
RSS_AFTER=$(vm_rss_kb)
RSS_GROWTH=$((RSS_AFTER - RSS_BEFORE))
echo "serve_smoke: daemon VmRSS ${RSS_BEFORE} kB -> ${RSS_AFTER} kB" \
    "over a 1000-key walk (+${RSS_GROWTH} kB)"
if [ "$RSS_GROWTH" -ge 8192 ]; then
    echo "serve_smoke: daemon memory grew ${RSS_GROWTH} kB (limit 8192)" >&2
    exit 1
fi
drain_daemon

# Pipelining stage: a fresh daemon and one client that sends 20,000
# 8-config evaluates unpaced (--rate 0) on one connection while it
# reads its replies. The daemon reads a bounded amount per wake-up and
# waits for a connection's replies to drain before reading more from
# it, so the client is served at the pace it reads; it is never shed
# at the write-buffer cap. Any error reply or a closed connection
# makes the client exit non-zero.
SOCK="$WORK/pipeline.sock"
DAEMON_LOG="$WORK/pipeline.log"
"$HARMONIAD" --socket "$SOCK" 2>"$DAEMON_LOG" &
DAEMON_PID=$!
wait_for_socket
"$CLIENT" --socket "$SOCK" --requests 20000 --rate 0 --mix evaluate \
    --configs 8 --quiet
drain_daemon

echo "serve_smoke: OK"
