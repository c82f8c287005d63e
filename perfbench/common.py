"""State and helpers shared by the benchmark's workloads."""

import statistics
import time


class BenchError(Exception):
    """The run could not complete; no result is printed."""


class Run:
    """One benchmark run: its inputs, and what the workload measured.

    A workload fills ``metrics`` (name -> number), counts operations in
    ``attempted``, calls fail() once per wrong or failed output, and,
    when ``trace`` is set, records spans.
    """

    def __init__(self, tools, run_dir, seed, seconds, trace):
        self.tools = tools
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.spans = []
        self._t0 = time.perf_counter_ns()

    def tool(self, name):
        return "%s/%s" % (self.tools, name)

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def span(self, name, start_ns, end_ns, parent=None):
        """Record one span, times in microseconds since the run began."""
        if self.trace:
            self.spans.append({
                "name": name,
                "start_us": (start_ns - self._t0) / 1e3,
                "end_us": (end_ns - self._t0) / 1e3,
                "parent": parent,
            })


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def latency_metrics(run, latencies_ns, elapsed_s, setups_s):
    """Fill the end-to-end metrics from per-operation latencies."""
    lat = sorted(latencies_ns)
    run.metrics["p50_ms"] = percentile(lat, 50) / 1e6
    run.metrics["p90_ms"] = percentile(lat, 90) / 1e6
    run.metrics["ops_per_s"] = len(lat) / elapsed_s
    run.metrics["setup_s"] = statistics.median(setups_s)
