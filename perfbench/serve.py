"""The workloads: harmoniad driven over its Unix socket.

Each workload is one client on one connection. It sends each request
after the previous reply (closed loop) and times it from send to the
end of its reply line. A single client keeps the figures steady on a
shared host; with several saturating clients they swing with the
host's load. The evaluate workloads send governor-style slices: eight
lattice points around one configuration, the candidates a governor
weighs at a kernel boundary.

hot     A fixed working set of (kernel, iteration) keys, each with a
        fixed slice, replayed after a warm pass, so every point comes
        out of the daemon's point cache and no lattice runs.
cold    The client walks keys it has never sent, so every request runs
        the lattice evaluator and allocates a new cache entry. The walk
        is cut into daemon lifetimes of COLD_SEGMENT_KEYS keys. That
        bounds the daemon's memory, since the cache has no byte budget,
        and gives one time-to-first-reply sample per lifetime. A traced
        run then measures the offline layers (campaign.py).
"""

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import time

import campaign
from common import BenchError, latency_metrics

SCHEMA = b'{"schema":"harmonia.request/1","id":'
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

# The standard suite: each app's kernels in execution order
# (src/workloads/apps/).
APPS = {
    "BPT": ["FindK", "FindRangeK"],
    "CFD": ["ComputeFlux", "ComputeStepFactor", "TimeStep"],
    "CoMD": ["EAM_Force_1", "AdvanceVelocity", "AdvancePosition"],
    "DeviceMemory": ["ReadWrite"],
    "Graph500": ["TopDownStep", "BottomStepUp", "BitmapConstruct"],
    "LUD": ["Diagonal", "Perimeter", "Internal"],
    "MaxFlops": ["MaxFlops"],
    "miniFE": ["MatVec", "Dot", "Waxpby"],
    "Sort": ["BottomScan", "TopScan", "Reduce"],
    "SPMV": ["CsrScalar"],
    "SRAD": ["Prepare", "Reduce", "Srad1", "Srad2"],
    "Stencil": ["Stencil9"],
    "Streamcluster": ["PGain", "CenterShift"],
    "XSBench": ["LookupMacroXS", "ReduceTallies"],
}
KERNELS = [app + "." + k for app, ks in APPS.items() for k in ks]

# The default device's (hd7970) 8 x 8 x 7 = 448-point lattice.
CU = list(range(4, 33, 4))
COMPUTE_MHZ = list(range(300, 1001, 100))
MEM_MHZ = list(range(475, 1376, 150))

SLICE = 8
HOT_KERNELS = 16
HOT_ITERATIONS = 8
WARM_SETUPS = 3
COLD_SEGMENT_KEYS = 600
COLD_REQUERY = 16
REFERENCE_SAMPLE = 64


def governor_slice(rng):
    """SLICE distinct on-lattice configs: a centre, its one-step
    neighbours along each axis, then random points to fill."""
    axes = (CU, COMPUTE_MHZ, MEM_MHZ)
    centre = [rng.randrange(len(a)) for a in axes]
    picked = [tuple(centre)]
    for axis in range(3):
        for step in (-1, 1):
            p = list(centre)
            p[axis] += step
            if 0 <= p[axis] < len(axes[axis]) and tuple(p) not in picked:
                picked.append(tuple(p))
    while len(picked) < SLICE:
        p = tuple(rng.randrange(len(a)) for a in axes)
        if p not in picked:
            picked.append(p)
    return [{"cu": CU[i], "compute_mhz": COMPUTE_MHZ[j],
             "mem_mhz": MEM_MHZ[k]} for i, j, k in picked[:SLICE]]


class Request:
    """One request line without its id; line(rid) adds the id. The
    fields are also attributes (key.kernel, key.iteration, ...)."""

    def __init__(self, **fields):
        self.__dict__.update(fields)
        self.tail = json.dumps(fields, separators=(",", ":"))[1:].encode() \
            + b"\n"

    def line(self, rid):
        return SCHEMA + str(rid).encode() + b"," + self.tail


def evaluate(kernel, iteration, configs):
    return Request(verb="evaluate", kernel=kernel, iteration=iteration,
                   configs=configs)


def body(response):
    """A response line without its echoed id."""
    cut = response.find(b',"verb"')
    return response[cut:] if cut >= 0 else response


def check_evaluate(response, key):
    """None when @p response is a correct answer to @p key, else why."""
    try:
        return _check_evaluate(json.loads(response), key)
    except (ValueError, KeyError, TypeError) as e:
        return "malformed response (%s: %s)" % (type(e).__name__, e)


def _check_evaluate(msg, key):
    if msg.get("ok") is not True:
        return "error reply %s" % msg.get("error")
    res = msg["result"]
    if (res.get("kernel") != key.kernel
            or res.get("iteration") != key.iteration
            or res.get("points") != len(key.configs)
            or len(res.get("results", ())) != len(key.configs)):
        return "result does not echo its request"
    for want, got in zip(key.configs, res["results"]):
        if got.get("config") != want:
            return "config %s answered as %s" % (want, got.get("config"))
        t, p = got["time_s"], got["power_w"]
        e, ed2 = got["card_energy_j"], got["ed2"]
        if not (t > 0 and p > 0 and e > 0 and ed2 > 0):
            return "non-positive result at %s" % want
        if abs(e - p * t) > 1e-9 * e:
            return "card energy != power x time at %s" % want
        if abs(ed2 - e * t * t) > 1e-9 * ed2:
            return "ed2 != energy x time^2 at %s" % want
        parts = got["gpu_energy_j"] + got["mem_energy_j"]
        if not 0 <= parts <= e * (1 + 1e-9):
            return "chip + memory energy exceeds card energy at %s" % want
    return None


class Daemon:
    """One harmoniad lifetime on a Unix socket under the run directory."""

    def __init__(self, run):
        self.sock_path = os.path.join(run.run_dir, "harmoniad.sock")
        self.log_path = os.path.join(run.run_dir, "harmoniad.log")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [run.tool("harmoniad"), "--socket", self.sock_path],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)

    def connect(self, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    raise BenchError("harmoniad exited with %s during "
                                     "startup; see %s"
                                     % (self.proc.returncode, self.log_path))
                if time.monotonic() > deadline:
                    raise BenchError("harmoniad socket never appeared")
                time.sleep(0.0002)

    def rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cpu_s(self):
        """User + system CPU time the daemon has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def sample(self, conn):
        return conn.stats(), self.cpu_s(), time.perf_counter_ns()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError("harmoniad exited with %s; see %s"
                             % (self.proc.returncode, self.log_path))


class Conn:
    """A blocking client connection; one newline-framed reply per line."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def roundtrip(self, line):
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply.endswith(b"\n"):
            raise BenchError("harmoniad closed the connection")
        return reply[:-1]

    def stats(self):
        reply = json.loads(self.roundtrip(SCHEMA + b'0,"verb":"stats"}\n'))
        return reply["result"]["metrics"]

    def close(self):
        self.reader.close()
        self.sock.close()


def closed_loop(conn, next_request, deadline_ns, on_reply):
    """Send next_request() -> (rid, Request) one at a time, each after the
    previous reply, until the deadline passes or it returns None.

    on_reply(rid, request, reply, latency_ns) sees every answer. Returns
    the window's wall time in seconds.
    """
    start = now = time.perf_counter_ns()
    while now < deadline_ns:
        req = next_request()
        if req is None:
            break
        rid, request = req
        sent = time.perf_counter_ns()
        reply = conn.roundtrip(request.line(rid))
        now = time.perf_counter_ns()
        on_reply(rid, request, reply, now - sent)
    return (now - start) / 1e9


def check_against_reference(run, requests, bodies):
    """A fresh one-shot daemon fed @p requests in order must answer
    them with @p bodies, byte for byte apart from the ids."""
    lines = b"".join(r.line(i + 1) for i, r in enumerate(requests))
    out = subprocess.run([run.tool("harmoniad"), "--stdio"], input=lines,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         timeout=120)
    want = out.stdout.split(b"\n")[:len(requests)]
    if out.returncode != 0 or len(want) != len(requests):
        run.fail("reference daemon failed (exit %d)" % out.returncode)
        return
    for i, (ref, got) in enumerate(zip(want, bodies)):
        if body(ref) != got:
            run.fail("request %d of %d differs from the reference daemon"
                     % (i + 1, len(requests)))


class LayerDelta:
    """Per-layer totals over measured windows, from Daemon.sample()."""

    FIELDS = ("requests", "service_us", "runs", "computed", "cached",
              "coalesced", "cpu_s", "wall_s")

    def __init__(self):
        self.totals = dict.fromkeys(self.FIELDS, 0.0)
        self.rss_mb = 0.0

    @staticmethod
    def _flat(sample):
        metrics, cpu_s, t_ns = sample
        ev = metrics["verbs"]["evaluate"]
        b = metrics["batching"]
        return (ev["requests"], ev["latency"]["mean_us"] *
                ev["latency"]["count"], b["lattice_runs"],
                b["points_computed"], b["points_from_cache"],
                b["coalesced_requests"], cpu_s, t_ns / 1e9)

    def add(self, before, after, rss_mb):
        for name, a, b in zip(self.FIELDS, self._flat(after),
                              self._flat(before)):
            self.totals[name] += a - b
        self.rss_mb = max(self.rss_mb, rss_mb)

    def report(self, run, latencies_ns, response_bytes):
        t = self.totals
        n = max(1, t["requests"])
        cached, computed = t["cached"], t["computed"]
        service = t["service_us"] / n
        run.metrics.update({
            "service_us": service,
            "outside_service_us":
                statistics.fmean(latencies_ns) / 1e3 - service,
            "daemon_busy_ratio": t["cpu_s"] / t["wall_s"],
            "lattice_runs_per_req": t["runs"] / n,
            "points_computed_per_req": computed / n,
            "cache_hit_ratio": cached / max(1, cached + computed),
            "coalesced_ratio": t["coalesced"] / n,
            "response_bytes": response_bytes,
            "daemon_rss_mb": self.rss_mb,
        })


def run_hot(run):
    rng = random.Random(run.seed)
    keys = [evaluate(k, it, governor_slice(rng))
            for k in rng.sample(KERNELS, HOT_KERNELS)
            for it in range(HOT_ITERATIONS)]
    order = rng.sample(keys, len(keys))

    # Set-up is a daemon start plus a warm pass that fills the point
    # cache with the whole working set, timed WARM_SETUPS times; the
    # last daemon serves the measurement. Every lifetime must answer
    # alike, and the first must be correct and match a fresh daemon.
    setups, expected, daemon = [], None, None
    latencies, size = [], 0
    try:
        for _ in range(WARM_SETUPS):
            if daemon:
                daemon.stop()
            t0 = time.perf_counter_ns()
            daemon = Daemon(run)
            conn = daemon.connect()
            replies = [conn.roundtrip(k.line(i + 1))
                       for i, k in enumerate(keys)]
            t1 = time.perf_counter_ns()
            conn.close()
            run.span("setup", t0, t1)
            setups.append((t1 - t0) / 1e9)
            run.attempted += len(keys)
            answers = [body(r) for r in replies]
            if expected is None:
                for key, reply in zip(keys, replies):
                    why = check_evaluate(reply, key)
                    if why:
                        run.fail("%s@%d: %s" % (key.kernel, key.iteration,
                                                why))
                check_against_reference(run, keys, answers)
                expected = answers
            elif answers != expected:
                run.fail("warm pass differs between daemon lifetimes")
        for key, answer in zip(keys, expected):
            key.answer = answer

        conn = daemon.connect()
        sent = 0

        def next_request():
            nonlocal sent
            sent += 1
            return len(keys) + sent, order[sent % len(order)]

        def on_reply(rid, key, reply, lat_ns):
            nonlocal size
            latencies.append(lat_ns)
            size += len(reply)
            if body(reply) != key.answer:
                run.fail("reply %d differs from the warm pass" % rid)

        before = daemon.sample(conn) if run.trace else None
        t0 = time.perf_counter_ns()
        elapsed = closed_loop(conn, next_request,
                              t0 + int(run.seconds * 1e9), on_reply)
        run.span("replay", t0, time.perf_counter_ns())
        run.attempted += len(latencies)
        if run.trace:
            layers = LayerDelta()
            layers.add(before, daemon.sample(conn), daemon.rss_mb())
            layers.report(run, latencies, size / len(latencies))
        conn.close()
    finally:
        if daemon:
            daemon.stop()
    latency_metrics(run, latencies, elapsed, setups)


def run_cold(run):
    rng = random.Random(run.seed)
    order = rng.sample(KERNELS, len(KERNELS))
    base = rng.randrange(1000)

    def key_at(j):
        # Seeded by position, so the walk is the same whatever the
        # timing splits it into.
        slice_rng = random.Random("%d:%d" % (run.seed, j))
        return evaluate(order[j % len(order)], base + j // len(order),
                        governor_slice(slice_rng))

    walked = []  # [Request, reply] per request, rid = index
    setups, latencies, elapsed, size = [], [], 0.0, 0
    layers = LayerDelta()
    deadline = time.perf_counter_ns() + int(run.seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        t0 = time.perf_counter_ns()
        daemon = Daemon(run)
        try:
            conn = daemon.connect()
            first = key_at(len(walked))
            walked.append([first, conn.roundtrip(first.line(len(walked)))])
            t1 = time.perf_counter_ns()
            run.span("setup", t0, t1)
            setups.append((t1 - t0) / 1e9)
            start = len(walked)
            before = daemon.sample(conn) if run.trace else None

            def next_request():
                if len(walked) - start >= COLD_SEGMENT_KEYS:
                    return None
                walked.append([key_at(len(walked)), None])
                return len(walked) - 1, walked[-1][0]

            def on_reply(rid, _key, reply, lat_ns):
                nonlocal size
                walked[rid][1] = reply
                latencies.append(lat_ns)
                size += len(reply)

            w0 = time.perf_counter_ns()
            elapsed += closed_loop(conn, next_request, deadline, on_reply)
            run.span("walk", w0, time.perf_counter_ns())
            if run.trace:
                layers.add(before, daemon.sample(conn), daemon.rss_mb())
            # Revisit a sample of this lifetime's keys: the cached
            # answer must equal the computed one.
            segment = walked[start:]
            for key, reply in rng.sample(segment,
                                         min(COLD_REQUERY, len(segment))):
                run.attempted += 1
                if body(conn.roundtrip(key.line(0))) != body(reply):
                    run.fail("%s@%d: cached answer differs from computed"
                             % (key.kernel, key.iteration))
            conn.close()
        finally:
            daemon.stop()

    run.attempted += len(walked)
    for key, reply in walked:
        why = check_evaluate(reply, key)
        if why:
            run.fail("%s@%d: %s" % (key.kernel, key.iteration, why))
    sample = rng.sample(walked, min(REFERENCE_SAMPLE, len(walked)))
    check_against_reference(run, [k for k, _ in sample],
                            [body(r) for _, r in sample])
    if run.trace:
        layers.report(run, latencies, size / len(latencies))
        campaign.measure_offline(run)
    latency_metrics(run, latencies, elapsed, setups)
