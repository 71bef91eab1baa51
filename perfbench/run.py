"""Benchmark of mgk: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mgk is imported from its `src/`.  The
workloads are in workloads.py and the metrics are defined in README.md.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and the failure accounting.  Traced runs also write their
spans to perfbench/out/.
"""

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
COLD_SAMPLES = 3
# the host-speed gauge: a reading before and after every operation, each
# the median of GAUGE_REPS timings of the gauge work, which takes
# GAUGE_REF_S on the reference host (a 2-core x86-64 machine in its faster
# regime); an operation is divided by the mean reading of at least
# WINDOW_S before and after it
GAUGE_REPS = 3
GAUGE_REF_S = 0.00058
WINDOW_S = 0.25
# share of a traced run's rounds made traced; the rest run untraced for the
# overhead
TRACED_SHARE = 0.75
CHILD_TIMEOUT = 120

E2E_UNITS = {
    "setup_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
    "ok_per_s": "1/s",
    "iqm_s": "s",
    "p90_s": "s",
    "small_s": "s",
    "mid_s": "s",
    "large_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Tally:
    """What a run keeps of its operations: attempted / failed / wrong
    answers per tier (or per untimed operation), one (tier, seconds, right
    answers, items, start time) row per timed operation and the first
    failure reasons."""

    def __init__(self):
        self.rows = {}
        self.timed = []
        self.ops = 0
        self.reasons = []

    def add(self, op, start, seconds, failed=0, wrong=(), error=""):
        row = self.rows.setdefault(op.tier or op.label, {"attempted": 0, "failed": 0, "wrong": 0})
        row["attempted"] += op.items
        row["failed"] += failed
        row["wrong"] += len(wrong)
        self.ops += 1
        if op.tier:
            self.timed.append((op.tier, seconds, op.items - failed - len(wrong), op.items, start))
        notes = ["WRONG %s: %s" % (op.label, why) for why in wrong]
        if failed:
            notes.append("failed %s%s" % (op.label, ": " + error if error else ""))
        self.reasons += notes[:max(0, 20 - len(self.reasons))]

    def busy(self, speed=None):
        """Seconds spent in timed operations (host-speed-normalised with
        `speed`)."""
        return sum(s / (speed.slowdown(start, s) if speed else 1.0)
                   for _, s, _, _, start in self.timed)

    def latencies(self, speed, tiers):
        """Normalised seconds of each successful timed operation of `tiers`."""
        return [s / speed.slowdown(start, s) for tier, s, ok, items, start in self.timed
                if tier in tiers and ok == items]


def execute(op, tally):
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a refused or crashed operation counts as failed
        tally.add(op, start, perf_counter() - start, failed=op.items, error=repr(exc))
        return
    seconds = perf_counter() - start
    try:
        failed, wrong = op.check(out)
    except Exception as exc:  # an unreadable answer is a wrong answer
        failed, wrong = 0, ["unreadable answer: %r" % exc] * op.items
    tally.add(op, start, seconds, failed, wrong)


_GAUGE_A = None


def _gauge_work():
    """Fixed work in the program's own mix: scalar Python arithmetic, small
    numpy arrays and a small dense solve."""
    global _GAUGE_A
    import numpy as np

    if _GAUGE_A is None:
        _GAUGE_A = np.eye(12) * 4 + np.arange(144.0).reshape(12, 12) % 5
    x = 0.0
    for i in range(1, 2500):
        x += (i * 7 % 13) / i
    v = np.arange(1.0, 13.0)
    for _ in range(40):
        v = np.linalg.solve(_GAUGE_A, np.abs(v) + 1.0)
    return x + float(v.sum())


class Speed:
    """The host's speed through a run.  A shared host runs the same work in
    speed regimes up to 1.7 times apart that switch after tens of
    milliseconds to tens of seconds, so a fixed piece of reference work
    (the gauge) is timed between operations.  A timed operation's seconds
    are divided by the host's slowdown around it: the mean of the gauge
    readings from WINDOW_S or the operation's own length, whichever is
    longer, before it to as long after it, over GAUGE_REF_S.  A reading is
    a snapshot, so an operation of seconds, across which the regime
    switches many times, is divided by the mean of as long a stretch.  The
    timings of a run then read as seconds on the reference host in its
    faster regime, whatever regime the run met."""

    def __init__(self):
        self.times = []
        self.readings = []

    def read(self):
        samples = []
        for _ in range(GAUGE_REPS):
            start = perf_counter()
            _gauge_work()
            samples.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.readings.append(statistics.median(samples))

    def slowdown(self, start, seconds):
        margin = max(WINDOW_S, seconds)
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, start + seconds + margin)
        return statistics.mean(self.readings[lo:hi]) / GAUGE_REF_S


def measure(ops, rounds, n_rounds, tally, speed=None, pause=None, n_pauses=0):
    """Run the `ops`, then `n_rounds` whole rounds, back to back; with a
    `speed`, read the gauge before the first operation and after each.
    `pause()` is called before n_pauses evenly spaced operations."""
    todo = ops + [op for _ in range(n_rounds) for op in next(rounds)]
    pauses = {i * len(todo) // n_pauses for i in range(n_pauses)}
    if speed:
        speed.read()
    for i, op in enumerate(todo):
        if i in pauses:
            pause()
            if speed:
                speed.read()
        execute(op, tally)
        if speed:
            speed.read()
    return tally


def child_env():
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_probe(args):
    """Seconds from starting a fresh interpreter on this benchmark to the
    end of its set-up (import, inputs, one warm-up call).  Not normalised:
    start-up time did not follow the gauge (24 probes spread 0.12 raw and
    0.17 normalised), being file reads, page faults and loading more than
    interpreted work."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return seconds


def cold_cli(argv, verdict_of, tally):
    """One `python -m mgk.cli ...` in a fresh process, timed as tier "cold"."""
    from workloads import Op, cli_check

    def run():
        proc = subprocess.run([sys.executable, "-m", "mgk.cli"] + argv, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        return proc.returncode, proc.stdout

    execute(Op("cold: mgk " + argv[0], "cold", 1, run, cli_check(verdict_of)), tally)


def import_profile():
    """(seconds to import mgk.cli, share of it spent importing scipy) from
    `python -X importtime` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mgk.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("import of mgk.cli failed: %s" % proc.stderr[-500:])
    total = scipy = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cumulative = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        if name == "mgk.cli":
            total = cumulative
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    return total / 1e6, (scipy / total if total else 0.0)


def environment():
    import numpy

    try:
        scipy = version("scipy")
    except PackageNotFoundError:
        scipy = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": blas,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else None


def _band_mean(values, lo, hi):
    """Mean of the sorted values from quantile `lo` to quantile `hi`.  A
    single order statistic such as the median jumps between the cost
    clusters of a mixed workload and between the speed regimes of a
    shared host; an average over a band of them moves smoothly."""
    if not values:
        return None
    values = sorted(values)
    n = len(values)
    first = min(int(lo * n), n - 1)
    return statistics.mean(values[first:max(first + 1, math.ceil(hi * n))])


def e2e_metrics(main, setup, speed):
    tiers = ("small", "mid", "large")
    latencies = main.latencies(speed, tiers)
    rows = main.rows.values()
    busy = main.busy(speed)
    values = {
        "setup_s": _median(setup),
        "ok_ratio": 1 - sum(r["failed"] + r["wrong"] for r in rows) / sum(r["attempted"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_per_s": sum(row[2] for row in main.timed) / busy if busy else None,
        "iqm_s": _band_mean(latencies, 0.25, 0.75),
        "p90_s": _band_mean(latencies, 0.85, 0.95),
    }
    for tier in tiers:
        values[tier + "_s"] = _band_mean(main.latencies(speed, (tier,)), 0.1, 0.9)
    samples = {t: len(main.latencies(speed, (t,))) for t in tiers}
    slowdowns = [r / GAUGE_REF_S for r in speed.readings]
    samples.update({"latency": len(latencies), "setup_s": [round(v, 4) for v in setup],
                    "raw_busy_s": round(main.busy(), 3),
                    "host_slowdown": [round(min(slowdowns), 3), round(_median(slowdowns), 3),
                                      round(max(slowdowns), 3)]})
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, samples


def print_result(tallies, metrics, notes=()):
    """The failure accounting as `#` lines, then the result line."""
    rows = {}
    for tally in tallies:
        for key, row in tally.rows.items():
            into = rows.setdefault(key, dict.fromkeys(row, 0))
            for field, n in row.items():
                into[field] += n
    reasons = [r for tally in tallies for r in tally.reasons][:20]
    for line in reasons + ["accounting " + json.dumps(rows, sort_keys=True)] + list(notes):
        print("# " + line)
    print(json.dumps({
        "correct": not any(r["wrong"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] + r["wrong"] for r in rows.values()),
        "metrics": metrics,
    }))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, one sample of each set-up figure (self-test)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mgk" / "__init__.py").is_file():
        print("perfbench: no mgk sources at %s" % (SRC / "mgk"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        prog = workloads.Program()
        workload = workloads.WORKLOADS[args.workload](prog, args.seed, tmp, args.tiny,
                                                      args.seconds)
        warmup = workload.warmup()
        warmup.tier = None  # counts for failures, not for time
        warm = Tally()
        execute(warmup, warm)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            return traced_run(args, workload, env, warm)
        # set-up probes spread over the run: start-up time moves with the
        # host's load over seconds, so probes made back to back agree with
        # each other more than with the probes of another run
        setup, speed = [], Speed()
        main_tally = measure(workload.once(), workload.rounds(), workload.n_rounds, warm, speed,
                             lambda: setup.append(setup_probe(args)),
                             1 if args.tiny else SETUP_SAMPLES)
        metrics, samples = e2e_metrics(main_tally, setup, speed)
        samples["rounds"] = workload.n_rounds
        print_result((main_tally,), metrics,
                     ["samples " + json.dumps(samples, sort_keys=True)])
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_run(args, workload, env, warm):
    from tracing import Tracer

    rounds, n_traced = workload.rounds(), max(1, round(workload.n_rounds * TRACED_SHARE))
    import_s, scipy_share = import_profile()
    cold = Tally()
    for _ in range(1 if args.tiny else COLD_SAMPLES):
        cold_cli(*workload.cold_argv(), cold)
    tracer = Tracer()
    tracer.install()
    cpu0, start = os.times(), perf_counter()
    traced = measure(workload.once(), rounds, n_traced, Tally())
    wall = perf_counter() - start
    cpu1 = os.times()
    tracer.uninstall()
    plain = measure([], rounds, max(1, workload.n_rounds - n_traced), Tally())

    traced_per_op = traced.busy() / len(traced.timed) if traced.timed else None
    plain_per_op = plain.busy() / len(plain.timed) if plain.timed else None
    values = tracer.metrics(wall, traced.ops)
    values.update({
        "cli.cold_start_s": _median([row[1] for row in cold.timed if row[2] == row[3]]),
        "setup.import_s": import_s,
        "setup.import_scipy_share": scipy_share,
        "process.cpu_per_wall": ((cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)) / wall,
        "trace.overhead_ratio": (traced_per_op / plain_per_op
                                 if traced_per_op and plain_per_op else None),
    })
    name = "trace-%s-seed%d.json.gz" % (args.workload, args.seed)
    tracer.write(OUT / name, {"workload": args.workload, "seed": args.seed, "env": env,
                              "wall_s": wall})
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
               for k, v in values.items() if k in PER_LAYER_UNITS}
    print_result((warm, cold, traced, plain), metrics,
                 ["spans written to " + str((OUT / name).relative_to(ROOT))])
    return 0


def _layer_units():
    units = {}
    for layer, fields in (
        ("deformation.residuals", ("calls_per_op", "self_share")),
        ("deformation.jacobian", ("calls_per_op", "self_share")),
        ("deformation.uv", ("calls_per_op", "self_share")),
        ("deformation.linalg_solve", ("calls_per_op", "self_share")),
        ("deformation.solve_filling", ("calls_per_op", "self_share", "failed_per_op")),
        ("deformation.newton", ("calls_per_op", "failed_per_op")),
        ("deformation.solve_complete", ("calls_per_op", "self_share", "failed_per_op")),
        ("report.build_report", ("calls_per_op", "self_share")),
        ("report.report_to_json", ("self_share",)),
        ("cusp_invariants.cusp_modulus", ("self_share",)),
        ("cusp_invariants.complex_length", ("self_share",)),
        ("cusp_invariants.return_path_length", ("self_share",)),
        ("commensurability_xk.abc", ("calls_per_op", "self_share")),
        ("slopes_symmetry.slope_sets_equivalent", ("calls_per_op", "self_share")),
        ("slopes_symmetry.d6_act", ("calls_per_op",)),
        ("slopes_symmetry.classify_slopes", ("self_share",)),
        ("slopes_symmetry.hyperbolic_filling_check", ("calls_per_op",)),
        ("cli.main", ("self_share",)),
    ):
        for f in fields:
            units["%s.%s" % (layer, f)] = "1" if f == "self_share" else "count/op"
    units.update({
        "deformation.newton_iters_per_fill": "1",
        "deformation.resid_evals_per_iter": "1",
        "deformation.continuation_useful_ratio": "1",
        "deformation.complete_calls_per_fill": "1",
        "cli.cold_start_s": "s",
        "setup.import_s": "s",
        "setup.import_scipy_share": "1",
        "process.cpu_per_wall": "1",
        "trace.overhead_ratio": "1",
    })
    return units


PER_LAYER_UNITS = _layer_units()

if __name__ == "__main__":
    sys.exit(main())
