"""In-process A/B timing of two revisions of mgk, in interleaved blocks.

    python3 tools/ab.py PARENT CHANGE [--blocks N] [--json FILE]

Run from the root of a checkout.  Each side is a directory that holds
src/mgk (a checkout, or `.` for the working tree) or a git revision, which
is exported with `git archive` into a temporary directory.  Each copy of
the package is imported under its own name; that works because every
import inside the package is relative.

A block times one rung on both copies, one after the other, on the same
seeded inputs, and alternates from block to block which copy runs first.
The rungs are the benchmark's shapes, read from perfbench/workloads.py:
fill_ladder's `solve_filling` on g = k + 1 at each k of
`FillLadder.RUNGS` (FILLS fills a block, the first cusp on a slope of
`FillLadder.SHORTEST`, the others on `FILL_SLOPES`); far and mixed
k=16, the same at k = 2 and k = 16 with the first cusp on a slope of
FAR_SLOPES, beyond the table of solved cusp blocks, lists that no
benchmark workload times; mixed batch, one `solve_fillings` call a block
at (9, 8) of four such lists, two with the first cusp on a slope of
`FillLadder.SHORTEST` and two on FAR_SLOPES, timed per list: the
tabulated lists stop after one block step and the far ones step on, so
the stacked Newton solve steps a subset of its points, which no
benchmark workload times either; every cusp, one `solve_fillings` call
a block at (65, 64) of four lists, every cusp on a coprime slope with
|p|, |q| up to MAX_PQ (`far_slope`), timed per list: about one such list
in ten fails its stacked first step and goes on by the continuation
path (`_path`), which no benchmark workload times; and fill_batch's
`cli.main(["fill", ..., "--batch", "--json"])`, three calls a block, each
on a signature of `FillBatch.SIGNATURES` and `FillBatch.LISTS` lists,
each cusp unfilled with probability 1/3.  The inputs come from
random.Random(SEED).  Before the first block each copy fills every
signature the rungs can draw once, with one `solve_fillings` call of 3/1
on cusp 1 and the other cusps unfilled, so that one-time per-signature
work, the complete structure and the table of solved cusp blocks that
the first filled spec builds, lands in no timed block; then it runs
every rung once, untimed.

It prints, per rung, the median time per operation of each side, CHANGE
over PARENT, the blocks in which CHANGE was faster, and the two-sided
sign-test p of that count.  Both copies share one interpreter, numpy,
BLAS and the allocator; each keeps its own module state, such as its own
`solve_complete` cache.  Cold start, imports and peak memory need fresh
processes: `perfbench/run.py` measures those.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
from checks import length_sq, primitive_slopes  # noqa: E402
from workloads import FILL_SLOPES, FillBatch, FillLadder  # noqa: E402

FILLS = 10
SEED = 1
# the primitive slopes of squared length 104 to 300: the table of solved
# cusp blocks holds those below 104
FAR_SLOPES = [s for s in primitive_slopes(300) if length_sq(s) >= 104]
# the declared range's bound on |p| and |q|
MAX_PQ = 300000


def source_root(side, scratch):
    """The directory whose src/mgk holds `side`'s package."""
    if os.path.isdir(os.path.join(side, "src", "mgk")):
        return side
    root = tempfile.mkdtemp(dir=scratch)
    tar = subprocess.run(["git", "archive", "--format=tar", side, "src/mgk"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if not member.isfile() and not member.isdir():
                raise SystemExit("%s: unexpected archive member %s" % (side, member.name))
        archive.extractall(root)
    return root


def load(name, root):
    """The package under src/mgk of `root`, imported as `name`."""
    package = os.path.join(root, "src", "mgk")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"),
                                                  submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, importlib.import_module(name + ".deformation"), importlib.import_module(name + ".cli")


def far_slope(rng):
    """A coprime slope with 1 <= p <= MAX_PQ, |q| <= MAX_PQ and length >= sqrt(7)."""
    while True:
        p, q = rng.randint(1, MAX_PQ), rng.randint(-MAX_PQ, MAX_PQ)
        if math.gcd(p, q) == 1 and p * p - p * q + q * q >= 7:
            return p, q


def ladder_inputs(rng, k, first, n=FILLS):
    return [[rng.choice(first)] + [rng.choice(FILL_SLOPES) for _ in range(k - 1)] for _ in range(n)]


def batch_argv(rng):
    g, k = rng.choice(FillBatch.SIGNATURES)
    texts = []
    for _ in range(FillBatch.LISTS):
        pairs = [None if rng.random() < 1 / 3 else rng.choice(FILL_SLOPES) for _ in range(k)]
        if all(pq is None for pq in pairs):
            pairs[rng.randrange(k)] = rng.choice(FILL_SLOPES)
        texts.append(",".join("inf" if pq is None else "%d/%d" % pq for pq in pairs))
    return ["fill", "--g", str(g), "--k", str(k), "--batch", "--json", "--coeffs", ";".join(texts)]


def run_ladder(copy, k, inputs):
    package, deformation, _ = copy
    sig = deformation.GKSignature(k + 1, k)
    for pairs in inputs:
        deformation.solve_filling(sig, package.FillingSpec.from_pairs(k, pairs))


def run_fillings(copy, k, inputs):
    package, deformation, _ = copy
    deformation.solve_fillings(deformation.GKSignature(k + 1, k),
                               [package.FillingSpec.from_pairs(k, pairs) for pairs in inputs])


def run_batch(copy, argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            copy[2].main(argv)


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def sign_test(wins, n):
    """Two-sided binomial p of `wins` out of n under p = 1/2."""
    tail = sum(math.comb(n, i) for i in range(min(wins, n - wins) + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--blocks", type=int, default=30, help="blocks per rung (default 30)")
    ap.add_argument("--json", metavar="FILE", help="also write the table as JSON")
    args = ap.parse_args(argv)
    # the exported sources stay until the end: the packages import lazily
    with tempfile.TemporaryDirectory() as scratch:
        copies = {side: load("mgk_ab_" + side, source_root(getattr(args, side), scratch))
                  for side in ("parent", "change")}
        table = compare(args.blocks, copies)
    if args.json:
        command = ["tools/ab.py"] + (sys.argv[1:] if argv is None else list(argv))
        doc = {"parent": args.parent, "change": args.change, "command": " ".join(command),
               "fills": FILLS, "lists": FillBatch.LISTS, "seed": SEED, "blocks": table}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


def compare(blocks, copies):
    """Time the blocks, print the table and return it by rung."""
    rng = random.Random(SEED)
    rungs = ["ladder k=%d" % k for k in FillLadder.RUNGS] + ["far", "mixed k=16", "mixed batch", "every cusp", "batch"]

    def block(rung):
        """The operation count and a function of a copy that runs the block."""
        if rung == "batch":
            argvs = [batch_argv(rng) for _ in range(3)]
            return len(argvs), lambda copy: run_batch(copy, argvs)
        if rung == "mixed batch":
            inputs = ladder_inputs(rng, 8, FillLadder.SHORTEST, 2) + ladder_inputs(rng, 8, FAR_SLOPES, 2)
            return len(inputs), lambda copy: run_fillings(copy, 8, inputs)
        if rung == "every cusp":
            inputs = [[far_slope(rng) for _ in range(64)] for _ in range(4)]
            return len(inputs), lambda copy: run_fillings(copy, 64, inputs)
        k = 2 if rung == "far" else int(rung.split("=")[1])
        inputs = ladder_inputs(rng, k, FillLadder.SHORTEST if rung.startswith("ladder") else FAR_SLOPES)
        return len(inputs), lambda copy: run_ladder(copy, k, inputs)

    signatures = sorted({(k + 1, k) for k in FillLadder.RUNGS} | {(65, 64)} | set(FillBatch.SIGNATURES))
    for package, deformation, _ in copies.values():
        for g, k in signatures:
            deformation.solve_fillings(deformation.GKSignature(g, k),
                                       [package.FillingSpec.from_pairs(k, [(3, 1)] + [None] * (k - 1))])
    for rung in rungs:
        _, run = block(rung)
        for copy in copies.values():
            run(copy)
    times = {rung: {"parent": [], "change": []} for rung in rungs}
    for b in range(blocks):
        order = ("parent", "change") if b % 2 == 0 else ("change", "parent")
        for rung in rungs:
            ops, run = block(rung)
            for side in order:
                times[rung][side].append(timed(run, copies[side]) / ops)
    table = {}
    print("%-12s %12s %12s %8s %8s %10s" % ("rung", "parent_us", "change_us", "ratio", "wins", "sign_p"))
    for rung in rungs:
        parent, change = times[rung]["parent"], times[rung]["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        row = {
            "parent_median_us": 1e6 * statistics.median(parent),
            "change_median_us": 1e6 * statistics.median(change),
            "wins": wins,
            "blocks": blocks,
            "sign_test_p": sign_test(wins, blocks),
        }
        row["ratio"] = row["change_median_us"] / row["parent_median_us"]
        table[rung] = row
        print("%-12s %12.1f %12.1f %8.3f %5d/%-3d %10.2g" % (
            rung, row["parent_median_us"], row["change_median_us"], row["ratio"], wins, blocks,
            row["sign_test_p"]))
    return table


if __name__ == "__main__":
    sys.exit(main())
