"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every answer check accepts a right answer of the program and catches
   one injected wrong answer.
2. Every workload runs at a tiny size, untraced and traced, and prints
   every metric that BENCHMARK.json names, with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402


def expect(ok, what):
    if not ok:
        raise AssertionError(what)
    print("ok   " + what)


def caught(verdict):
    return isinstance(verdict, str) and verdict != ""


def check_injections(tmp):
    prog = workloads.Program()
    mgk = prog.mgk
    rmax = prog.residual_max

    # API filling
    pairs = ((5, 1), (7, 2))
    x = mgk.solve_filling(mgk.GKSignature(3, 2), mgk.FillingSpec.from_pairs(2, pairs))
    coeffs = [prog.dehn_coefficients(x, c) for c in range(2)]
    expect(checks.check_fill(pairs, rmax(3, 2, x), coeffs) is None, "fill: right answer accepted")
    bent = x.copy()
    bent[0] += 1e-6
    expect(caught(checks.check_fill(pairs, rmax(3, 2, bent), coeffs)), "fill: residual caught")
    shifted = [coeffs[0], (coeffs[1][0], coeffs[1][1] + 1e-6)]
    expect(caught(checks.check_fill(pairs, rmax(3, 2, x), shifted)), "fill: coefficients caught")

    # CLI filling report
    code, out = prog.call_cli(["fill", "--g", "3", "--k", "2", "--coeffs", "inf,5/1", "--json"])
    doc = json.loads(out)
    fill_pairs = (None, (5, 1))
    expect(code == 0 and checks.check_fill_doc(3, 2, fill_pairs, doc, rmax) is None,
           "fill --json: right answer accepted")
    bad = copy.deepcopy(doc)
    bad["cusps"][1]["coefficients"] = [5.0, 2.0]
    expect(caught(checks.check_fill_doc(3, 2, fill_pairs, bad, rmax)), "fill --json: coefficients caught")

    # slope-set equivalence
    wl = workloads.SlopeSearch(prog, 7, tmp, tiny=True, seconds=1)
    for reflections in (False, True):
        flag = ["--reflections"] if reflections else []

        def ask(a, b):
            argv = ["similar", "--k", "4", workloads._slope_set_text(a),
                    workloads._slope_set_text(b), "--json"] + flag
            return json.loads(prog.call_cli(argv)[1])

        a, b = wl._sets(4, reflections, True)
        pos = ask(a, b)
        expect(checks.check_similar_doc(a, b, True, reflections, pos) is None,
               "similar %s: witness accepted" % flag)
        bad = copy.deepcopy(pos)
        bad["witness"]["local"][0][0] += 1
        expect(caught(checks.check_similar_doc(a, b, True, reflections, bad)),
               "similar %s: wrong witness caught" % flag)
        if not reflections:
            bad = copy.deepcopy(pos)
            bad["witness"]["local"] = [[rot, 1] for rot, _ in bad["witness"]["local"]]
            expect(caught(checks.check_similar_doc(a, b, True, False, bad)),
                   "similar: orientation-reversing witness caught")
        a, b = wl._sets(4, reflections, False)
        neg = ask(a, b)
        expect(checks.check_similar_doc(a, b, False, reflections, neg) is None,
               "similar %s: negative accepted" % flag)
        bad = dict(neg, equivalent=True, witness=pos["witness"])
        expect(caught(checks.check_similar_doc(a, b, False, reflections, bad)),
               "similar %s: witness for a negative caught" % flag)

    # slope table
    doc = json.loads(prog.call_cli(["slopes", "--max-len-sq", "50", "--json"])[1])
    expect(checks.check_slopes_doc(50, doc) is None, "slopes: table accepted")
    bad = copy.deepcopy(doc)
    bad["orbits"][-1]["orbits"] = bad["orbits"][-1]["orbits"][:-1]
    expect(caught(checks.check_slopes_doc(50, bad)), "slopes: missing slopes caught")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_tiny_runs(bench):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            expect(proc.returncode == 0, "%s trace=%d exits 0" % (workload, trace))
            doc = last_json(proc.stdout)
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"} and doc["correct"]
                   and doc["attempted"] >= 1, "%s trace=%d result is correct" % (workload, trace))
            missing = [m["name"] for m in listed
                       if doc["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, "%s trace=%d prints all %d metrics with units %s"
                   % (workload, trace, len(listed), missing or ""))


def check_bare_directory(bench, tmp):
    bare = Path(tmp) / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program's sources the benchmark fails and prints no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out")
    try:
        check_injections(tmp)
        check_bare_directory(bench, tmp)
        check_tiny_runs(bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
