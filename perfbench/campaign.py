"""The offline layers: every paper exhibit, then the model checker.

One operation is one `harmonia_exp` process running every exhibit of
tier "exp" (the paper's figures, tables, ablations and extensions; the
"bench" tier measures wall-clock time and is left out) with JSON
artifacts, followed by one `check_model` process per registered device
profile. The 10,416-point ampere-ga100 lattice is checked on the first
iteration of each kernel only, which keeps one operation near a second.

These are per-layer figures only, taken in the cold workload's traced
run: compute-bound wall time on a shared host drifts by a quarter and
more over tens of minutes, too much for a regression bound.

The seed orders the exhibits and the devices and is passed to
`harmonia_exp --seed`. Checks: every process exits 0, every checker
reports 0 violations, every operation writes the same artifact bytes as
a `--jobs 4` run, and the Figure 10 table keeps the campaign properties
tests/test_campaign.cpp pins.
"""

import json
import os
import random
import re
import shutil
import statistics
import subprocess
import time

from common import BenchError

DEVICES = ["hd7970", "hbm-stacked", "ampere-ga100"]
PARTIAL_DEVICES = {"ampere-ga100": ["--iterations", "1"]}
SUITE_APPS = 14
OPERATIONS = 3
TIMEOUT_S = 60

RAN = re.compile(r"harmonia_exp: ran \d+ experiment\(s\) in ([0-9.]+) ms")
CAMPAIGN = re.compile(r"campaign wall-clock: ([0-9.]+) ms")
CHECKED = re.compile(r"^(\d+) invariant violation\(s\) across (\d+) "
                     r"design-space points", re.M)
CHECK_WALL = re.compile(r"check_model wall-clock: ([0-9.]+) ms")


def exp_exhibits(run):
    """Names of the registered tier-"exp" exhibits, in registry order."""
    out = subprocess.run([run.tool("harmonia_exp"), "--list"],
                         stdout=subprocess.PIPE, timeout=TIMEOUT_S,
                         check=True, text=True).stdout
    names = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 2 and cells[1] == "exp":
            names.append(cells[0])
    if not names:
        raise BenchError("harmonia_exp --list shows no exp-tier exhibit")
    return names


def check_fig10(run, artifacts):
    """The repository's campaign properties, on the full-suite table:
    the oracle beats (or matches, within 2 points) every online scheme
    on every app, and Harmonia improves the geomean ED^2."""
    table = json.loads(artifacts["fig10.json"])
    cols = table["columns"]
    rows = {r[0]: [float(c.rstrip("%")) for c in r[1:]]
            for r in table["rows"]}
    if len(rows) != len(table["rows"]) or len(rows) < SUITE_APPS + 1:
        run.fail("fig10 has %d rows" % len(table["rows"]))
        return
    oracle = cols.index("Oracle") - 1
    for app, pct in rows.items():
        if pct[oracle] < max(pct) - 2.0:
            run.fail("fig10 %s: oracle %.1f%% below %s"
                     % (app, pct[oracle], max(pct)))
    if rows["Geomean"][cols.index("FG+CG (Harmonia)") - 1] <= 0:
        run.fail("fig10: Harmonia does not improve the geomean ED^2")


def read_artifacts(out_dir):
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            artifacts[name] = f.read()
    return artifacts


def measure_offline(run):
    """OPERATIONS offline operations; per-layer medians into run.metrics."""
    rng = random.Random(run.seed)
    exhibits = exp_exhibits(run)
    rng.shuffle(exhibits)
    devices = rng.sample(DEVICES, len(DEVICES))
    out_dir = os.path.join(run.run_dir, "exp")
    exp_cmd = [run.tool("harmonia_exp"), "--format", "json", "--out",
               out_dir, "--seed", str(run.seed)]
    for name in exhibits:
        exp_cmd += ["--run", name]
    check_cmds = [(d, [run.tool("check_model"), "--device", d, "--jobs",
                       "1"] + PARTIAL_DEVICES.get(d, [])) for d in devices]

    # Reference artifacts: harmonia_exp's output must not depend on --jobs.
    subprocess.run(exp_cmd + ["--jobs", "4"], stdout=subprocess.DEVNULL,
                   timeout=TIMEOUT_S, check=True)
    reference = read_artifacts(out_dir)
    check_fig10(run, reference)
    exp_cmd += ["--jobs", "1"]

    def process(name, cmd, parent):
        t0 = time.perf_counter_ns()
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=TIMEOUT_S)
        t1 = time.perf_counter_ns()
        run.span(name, t0, t1, parent)
        run.attempted += 1
        if p.returncode != 0:
            run.fail("%s exited %d: %s" % (name, p.returncode,
                                           p.stderr.strip()[-300:]))
        return p, (t1 - t0) / 1e6

    layers = {}

    def note(name, value):
        layers.setdefault(name, []).append(value)

    for op in range(OPERATIONS):
        shutil.rmtree(out_dir, ignore_errors=True)
        parent = "offline %d" % op
        t0 = time.perf_counter_ns()
        p, wall = process("harmonia_exp", exp_cmd, parent)
        note("exp_process_ms", wall)
        for regex, name in ((RAN, "exp_run_ms"), (CAMPAIGN, "campaign_ms")):
            m = regex.search(p.stdout)
            if m:
                note(name, float(m.group(1)))
        points = 0
        for device, cmd in check_cmds:
            p, _ = process("check_model " + device, cmd, parent)
            m = CHECKED.search(p.stdout)
            if m and m.group(1) == "0":
                points += int(m.group(2))
            elif p.returncode == 0:
                run.fail("check_model %s reports no clean sweep" % device)
            m = CHECK_WALL.search(p.stderr)
            if m:
                note("check_%s_ms" % device, float(m.group(1)))
        run.span(parent, t0, time.perf_counter_ns())
        note("check_points", points)
        if read_artifacts(out_dir) != reference:
            run.fail("offline operation %d wrote different artifacts" % op)

    for name, values in layers.items():
        run.metrics[name] = statistics.median(values)
