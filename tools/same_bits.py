"""Bit identity of two revisions of mgk on a fixed seeded corpus.

    python3 tools/same_bits.py PARENT CHANGE

Run from the root of a checkout.  Each side is a directory that holds
src/mgk (a checkout, or `.` for the working tree) or a git revision, and
is loaded as `tools/ab.py` loads it.  Both sides solve the same corpus
with `solve_fillings`, drawn from random.Random(SEED) in ROUNDS rounds,
with the benchmark's shapes read from perfbench/workloads.py:

  * fill_ladder: FILLS calls of one list at g = k + 1 for each k of
    `FillLadder.RUNGS`, the first cusp on a slope of
    `FillLadder.SHORTEST` and the others on `FILL_SLOPES`;
  * fill_batch: per signature of `FillBatch.SIGNATURES`, one call of
    `FillBatch.LISTS` lists, each cusp unfilled with probability 1/3,
    else on `FILL_SLOPES`;
  * far slopes: per signature of FAR, one call of FAR_LISTS lists, each
    cusp unfilled, on `FILL_SLOPES` or on a coprime slope with |p|, |q|
    up to `ab.MAX_PQ` (`ab.far_slope`);

and, once, the lists of FIXED.  Each side has two sha256 hashes: that of
the records in order (x and residual bytes, or the error's repr), and that
of the complete structures, over the `CompleteSolution` of each corpus
signature, of every signature with g < TABLE_G and of those of TABLE_FAR,
field by field (array bytes, float bits) over the public fields that both
sides' `CompleteSolution` has, and then the signature's table of solved
cusp blocks from `_cusp_table` (its arrays and its rows).  It prints per
side both hashes and the kernel evaluations (`_evaluate`) and block
solves (`_block_step`) that the corpus took, and those of a cold
`solve_complete` at (2, 1), then the corpus's closed-form jets
(`_complete_jet`, which only a continuation path takes, after a failed
stacked first step), and then by name each other field that only one
side has, which no hash covers.
When a hash differs it prints the largest |dx| between the two sides'
solutions, over the records where both sides solved, and the record where
it occurs, and exits 1.
"""

import dataclasses
import hashlib
import os
import random
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab import far_slope, load, source_root  # noqa: E402
from workloads import FILL_SLOPES, FillBatch, FillLadder  # noqa: E402

SEED = 4801
ROUNDS = 5
FILLS = 10
FAR = [(2, 1), (3, 2), (9, 4), (17, 16), (50, 8), (100, 3), (150, 1), (200, 64), (400, 1), (498, 1), (500, 16)]
FAR_LISTS = 2
FIXED = [
    ((2, 1), [[(40, 1)]]),
    ((3, 2), [[(40, 1), None], [(40, 1), (3, 1)]]),
    ((2, 1), [[(1234567, 1)], [(499999, 3)]]),
]
TABLE_G = 80
TABLE_FAR = [(g, k) for g in range(100, 499) for k in (1, 2, 16, 64)]
SIDES = ("parent", "change")


def corpus():
    """The calls, as (g, k) and a list of slope lists."""
    rng, calls = random.Random(SEED), []
    for _ in range(ROUNDS):
        for k in FillLadder.RUNGS:
            for _ in range(FILLS):
                pairs = [rng.choice(FillLadder.SHORTEST)] + [rng.choice(FILL_SLOPES) for _ in range(k - 1)]
                calls.append(((k + 1, k), [pairs]))
        for g, k in FillBatch.SIGNATURES:
            lists = []
            for _ in range(FillBatch.LISTS):
                pairs = [None if rng.random() < 1 / 3 else rng.choice(FILL_SLOPES) for _ in range(k)]
                if all(pq is None for pq in pairs):
                    pairs[rng.randrange(k)] = rng.choice(FILL_SLOPES)
                lists.append(pairs)
            calls.append(((g, k), lists))
        for g, k in FAR:
            lists = [[rng.choice([None, rng.choice(FILL_SLOPES), far_slope(rng), far_slope(rng)]) for _ in range(k)]
                     for _ in range(FAR_LISTS)]
            calls.append(((g, k), lists))
    return calls + FIXED


def counted(deformation, names):
    """Wrap the module functions `names` of `deformation` with call counters."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _fn=getattr(deformation, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        setattr(deformation, name, wrapper)
    return counts


def field_bytes(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, tuple):
        return b"".join(field_bytes(v) for v in value)
    return repr(sorted(value.items(), key=repr)).encode()


def side_hash(copy, calls, fields):
    """The hashes of one side's records and of its complete structures
    over `fields`, its counts (records, cold (2, 1) and total) and its
    solutions per record (None for an error)."""
    package, deformation, _ = copy
    counts = counted(deformation, ["_evaluate", "_block_step", "_complete_jet"])
    deformation.solve_complete(deformation.GKSignature(2, 1))
    cold = dict(counts)
    h, points = hashlib.sha256(), []
    for (g, k), lists in calls:
        records = []
        deformation.solve_fillings(deformation.GKSignature(g, k),
                                   [package.FillingSpec.from_pairs(k, pairs) for pairs in lists], out=records)
        for rec in records:
            if isinstance(rec.x, Exception):
                h.update(repr(rec.x).encode())
                points.append(None)
            else:
                h.update(rec.x.tobytes() + rec.residual.tobytes())
                points.append(rec.x)
    solved = dict(counts)
    sweep = [(g, k) for g in range(2, TABLE_G) for k in range(1, g)] + TABLE_FAR
    signatures = list(dict.fromkeys([sig for sig, _ in calls] + sweep))
    hc = hashlib.sha256()
    for g, k in signatures:
        sig = deformation.GKSignature(g, k)
        try:
            cs = deformation.solve_complete(sig)
        except deformation.ConvergenceError as exc:
            hc.update(repr(exc).encode())
            continue
        for value in [getattr(cs, name) for name in fields] + list(deformation._cusp_table(sig, cs)):
            hc.update(field_bytes(value))
    return (h.hexdigest(), hc.hexdigest()), len(points), len(signatures), cold, solved, points


def largest_dx(calls, parent, change):
    """The text of the largest |dx| between the solutions of the two
    sides, over the records where both solved, and of its record."""
    labels = [(g, k, pairs) for (g, k), lists in calls for pairs in lists]
    dx, at = max(((float(np.abs(a - b).max()), i) for i, (a, b) in enumerate(zip(parent, change))
                  if a is not None and b is not None), default=(0.0, None))
    if not dx:
        return "max |dx| 0: every record that both sides solved has the same x"
    g, k, pairs = labels[at]
    slopes = ",".join("inf" if pq is None else "%d/%d" % pq for pq in pairs)
    return "max |dx| %.3g at record %d: g=%d k=%d %s" % (dx, at, g, k, slopes)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: python3 tools/same_bits.py PARENT CHANGE")
    calls = corpus()
    digests, points = [], []
    with tempfile.TemporaryDirectory() as scratch:
        copies = [load("mgk_same_bits_" + side, source_root(rev, scratch)) for side, rev in zip(SIDES, argv)]
        names = [[field.name for field in dataclasses.fields(copy[1].CompleteSolution)
                  if not field.name.startswith("_")] for copy in copies]
        shared = [name for name in names[0] if name in names[1]]
        for side, copy in zip(SIDES, copies):
            digest, n_records, n_sigs, cold, solved, xs = side_hash(copy, calls, shared)
            digests.append(digest)
            points.append(xs)
            print("%-7s records %s  structures %s  %d records  %d signatures  cold (2, 1) evaluations %d "
                  "block solves %d  corpus evaluations %d block solves %d jets %d" % (
                      side, digest[0], digest[1], n_records, n_sigs, cold["_evaluate"], cold["_block_step"],
                      solved["_evaluate"] - cold["_evaluate"], solved["_block_step"] - cold["_block_step"],
                      solved["_complete_jet"] - cold["_complete_jet"]))
    for side, own in zip(SIDES, names):
        for name in own:
            if name not in shared:
                print("field only in %s: %s" % (side, name))
    same = digests[0] == digests[1]
    if not same:
        print(largest_dx(calls, *points))
    print("same bits" if same else "bits differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
