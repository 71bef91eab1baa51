"""The workloads, their seeded inputs and the program under test.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the workload's
seed, and signatures only from fixed rules (g = k+1, whole g/k ranges);
no signature is kept or dropped by whether it solves.  The program is
driven through its public API (`mgk.solve_filling`, ...) and through
`mgk.cli.main` with command-line argv; `--threads` is never passed.
"""

import importlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import checks

# slopes a filling may use: coprime, squared hexagonal length 7..49, so
# every one clears the sqrt(7) hyperbolicity threshold
FILL_SLOPES = [s for s in checks.primitive_slopes(49) if checks.length_sq(s) >= 7]


@dataclass
class Op:
    """One operation.  `run` is the timed call; `check(output)` returns
    (items refused by the program, reasons for items answered wrongly).
    Ops with a latency `tier` count for latency and throughput; ops with
    tier None count only in the failure accounting."""

    label: str
    tier: Optional[str]
    items: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


class Program:
    """mgk imported from the checkout's `src/`."""

    def __init__(self):
        self.mgk = importlib.import_module("mgk")
        self.cli = importlib.import_module("mgk.cli")
        # unwrapped references for the checks, taken before any tracing
        self._residuals = self.mgk.residuals
        self.dehn_coefficients = self.mgk.dehn_coefficients

    def residual_max(self, g, k, x):
        return float(abs(self._residuals(self.mgk.GKSignature(g, k), x)).max())

    def call_cli(self, argv):
        """`mgk.cli.main(argv)` in-process; returns (exit code, stdout)."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()


def cli_check(verdict_of):
    """Check of a CLI call with one answer: a non-zero exit is a refusal,
    otherwise `verdict_of(stdout)` judges the answer."""

    def check(result):
        code, out = result
        if code != 0:
            return 1, []
        verdict = verdict_of(out)
        return 0, [verdict] if verdict else []

    return check


def _coeff_text(pairs):
    return ",".join("inf" if pq is None else "%d/%d" % pq for pq in pairs)


def _slope_set_text(slopes):
    return ",".join("%d/%d@%d" % (s[0], s[1], i + 1) for i, s in enumerate(slopes))


class Workload:
    """`once()` lists the untimed operations a run makes once; `rounds()`
    yields lists of timed operations.  A run makes a fixed number of whole
    rounds, `n_rounds(seconds)`, so every run of a given length makes the
    same operations in number and kind, and fails the same ones."""

    # seconds one round takes at the seed on a 2-core x86-64 host in its
    # slower speed regime, so that a run of the seed lasts about `--seconds`
    ROUND_S = 1.0
    MIN_ROUNDS = 1

    def __init__(self, prog, seed, tmp, tiny, seconds):
        self.prog = prog
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.tiny = tiny
        self.n_rounds = 1 if tiny else max(self.MIN_ROUNDS, round(seconds / self.ROUND_S))

    def once(self):
        return []

    def _read_out(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        return doc

    def cold_argv(self):
        """Argv of the fresh-process CLI call and the verdict on its stdout."""
        raise NotImplementedError


class FillLadder(Workload):
    """`solve_filling` on g = k+1 at the timed rungs k = 2, 8, 16, every
    cusp filled; one attempt each at k = 32 and k = 64 per run.

    The first cusp always gets a slope of the threshold length sqrt(7).
    Continuation starts at t0 = l_safe / (shortest slope), so this gives
    every solve of a rung the same path length; otherwise the solve time
    of a rung is bimodal in whether a sqrt(7) slope was drawn, and its
    median jumps between the two modes from seed to seed."""

    RUNGS = {2: "small", 8: "mid", 16: "large"}
    ATTEMPTS = (32, 64)
    ROUND_S = 0.42
    SHORTEST = [s for s in FILL_SLOPES if checks.length_sq(s) == 7]

    def _pairs(self, k):
        rest = [self.rng.choice(FILL_SLOPES) for _ in range(k - 1)]
        return (self.rng.choice(self.SHORTEST), *rest)

    def solve_op(self, k, tier):
        pairs = self._pairs(k)
        prog = self.prog

        def run():
            m = prog.mgk
            return m.solve_filling(m.GKSignature(k + 1, k), m.FillingSpec.from_pairs(k, pairs))

        def check(x):
            coeffs = [prog.dehn_coefficients(x, c) for c in range(k)]
            verdict = checks.check_fill(pairs, prog.residual_max(k + 1, k, x), coeffs)
            return 0, [verdict] if verdict else []

        return Op("solve_filling g=%d k=%d" % (k + 1, k), tier, 1, run, check)

    def warmup(self):
        return self.solve_op(2, "small")

    def once(self):
        return [] if self.tiny else [self.solve_op(k, None) for k in self.ATTEMPTS]

    def rounds(self):
        while True:
            yield [self.solve_op(k, tier) for k, tier in self.RUNGS.items()]

    def cold_argv(self):
        pairs = self._pairs(2)
        argv = ["fill", "--g", "3", "--k", "2", "--coeffs", _coeff_text(pairs), "--json"]
        return argv, lambda out: checks.check_fill_doc(3, 2, pairs, json.loads(out),
                                                       self.prog.residual_max)


class FillBatch(Workload):
    """One `mgk fill --batch` call per signature 1 <= k <= 4, k < g <= 12,
    each with a few seeded coefficient lists mixing inf and slopes."""

    SIGNATURES = [(g, k) for k in range(1, 5) for g in range(k + 1, 13)]
    LISTS = 4
    ROUND_S = 2.2

    def _lists(self, k):
        out = []
        for _ in range(self.LISTS):
            pairs = [None if self.rng.random() < 1 / 3 else self.rng.choice(FILL_SLOPES)
                     for _ in range(k)]
            if all(pq is None for pq in pairs):
                pairs[self.rng.randrange(k)] = self.rng.choice(FILL_SLOPES)
            out.append(tuple(pairs))
        return out

    def batch_op(self, g, k):
        """One `mgk fill --batch --json --out FILE` call."""
        lists = self._lists(k)
        tier = "small" if k == 1 else "mid" if k <= 3 else "large"
        path = os.path.join(self.tmp, "fill.json")
        argv = ["fill", "--g", str(g), "--k", str(k), "--batch", "--json", "--out", path,
                "--coeffs", ";".join(_coeff_text(pairs) for pairs in lists)]

        def check(result):
            if result[0] != 0:
                return len(lists), []
            docs = self._read_out(path)
            if len(docs) != len(lists):
                return 0, ["%d reports for %d lists" % (len(docs), len(lists))] * len(lists)
            verdicts = [checks.check_fill_doc(g, k, pairs, doc, self.prog.residual_max)
                        for pairs, doc in zip(lists, docs)]
            return 0, [v for v in verdicts if v]

        label = "fill --batch g=%d k=%d" % (g, k)
        return Op(label, tier, len(lists), lambda: self.prog.call_cli(argv), check)

    def warmup(self):
        return self.batch_op(3, 2)

    def rounds(self):
        while True:
            sigs = list(self.SIGNATURES)
            self.rng.shuffle(sigs)
            yield [self.batch_op(g, k) for g, k in sigs]

    def cold_argv(self):
        pairs = (None, (5, 1))
        argv = ["fill", "--g", "3", "--k", "2", "--coeffs", "inf,5/1", "--json"]
        return argv, lambda out: checks.check_fill_doc(3, 2, pairs, json.loads(out),
                                                       self.prog.residual_max)


class SlopeSearch(Workload):
    """`mgk similar --json` for k = 2..8, with and without --reflections:
    positives are a seeded isometry image of A, hard negatives swap one
    slope of that image for an inequivalent slope of the same length.
    Plus one `mgk slopes --max-len-sq` table per run.

    The search tries permutations in lexicographic order, so a positive
    costs in proportion to the rank of its witness permutation.  Ranks are
    stratified over the rounds of a run rather than drawn independently,
    so that the few k = 8 queries a run can afford cover the range the
    same way in every run."""

    POOL = checks.primitive_slopes(300)
    TABLE_LEN_SQ = 1000
    ROUND_S = 7.4
    # 168 queries: more than 10 beyond p90, and 24 of k = 8, whose
    # host-speed-normalised times still carry much of the host's noise
    MIN_ROUNDS = 6

    def __init__(self, prog, seed, tmp, tiny, seconds):
        super().__init__(prog, seed, tmp, tiny, seconds)
        by_len = {}
        for s in self.POOL:
            orbits = by_len.setdefault(checks.length_sq(s), [])
            if not any(s in o for o in orbits):
                orbits.append(checks.d6_orbit(s))
        # lengths carried by two or more dihedral orbits
        self.rivals = {lsq: [sorted(o) for o in orbits]
                       for lsq, orbits in by_len.items() if len(orbits) > 1}
        self.swappable = sorted(s for orbits in self.rivals.values() for o in orbits for s in o)
        self.rank_order = {}
        self.drawn = {}

    def _witness_perm(self, k, reflections):
        """The next permutation of k tori.  Every n = n_rounds draws of a
        (k, mode) take the ranks at the midpoints of the n equal strata of
        all k! ranks, in a seeded order."""
        key, n = (k, reflections), self.n_rounds
        order = self.rank_order.setdefault(key, self.rng.sample(range(n), n))
        i = self.drawn[key] = self.drawn.get(key, -1) + 1
        u = (order[i % n] + 0.5) / n
        rank, free, perm = int(u * math.factorial(k)), list(range(k)), []
        for i in range(k - 1, -1, -1):
            digit, rank = divmod(rank, math.factorial(i))
            perm.append(free.pop(digit))
        return perm

    def _sets(self, k, reflections, equivalent):
        rng = self.rng
        # k pairwise inequivalent slopes, one of them swappable: then every
        # query of a given k and mode explores the same tree of
        # permutations, and only the witness rank varies
        j = rng.randrange(k)
        a = [None] * k
        a[j] = rng.choice(self.swappable)
        taken = {checks.d6_orbit(a[j])}
        for i in range(k):
            while a[i] is None:
                s = rng.choice(self.POOL)
                if checks.d6_orbit(s) not in taken:
                    a[i] = s
                    taken.add(checks.d6_orbit(s))
        perm = self._witness_perm(k, reflections)
        local = [(rng.randrange(6), reflections and rng.random() < 0.5) for _ in range(k)]
        b = list(checks.apply_witness(perm, local, a))
        if not equivalent:
            s = b[perm[j]]
            other = rng.choice([o for o in self.rivals[checks.length_sq(s)] if s not in o])
            b[perm[j]] = rng.choice(other)
        return tuple(a), tuple(b)

    def query_op(self, k, reflections, equivalent):
        a, b = self._sets(k, reflections, equivalent)
        argv = ["similar", "--k", str(k), _slope_set_text(a), _slope_set_text(b), "--json"]
        if reflections:
            argv.append("--reflections")
        tier = "small" if k <= 4 else "mid" if k <= 6 else "large"

        check = cli_check(lambda out: checks.check_similar_doc(
            a, b, equivalent, reflections, json.loads(out)))
        label = "similar k=%d %s%s" % (k, "pos" if equivalent else "neg",
                                        " --reflections" if reflections else "")
        return Op(label, tier, 1, lambda: self.prog.call_cli(argv), check)

    def table_op(self):
        n = 100 if self.tiny else self.TABLE_LEN_SQ
        argv = ["slopes", "--max-len-sq", str(n), "--json"]

        check = cli_check(lambda out: checks.check_slopes_doc(n, json.loads(out)))
        return Op("slopes --max-len-sq %d" % n, None, 1, lambda: self.prog.call_cli(argv), check)

    def warmup(self):
        return self.query_op(3, False, True)

    def once(self):
        return [self.table_op()]

    def rounds(self):
        while True:
            # shuffled, so that the quick small-k queries are spread over
            # the run instead of bunched between the long k = 8 ones
            queries = [self.query_op(k, r, e)
                       for k in range(2, 9) for r in (False, True) for e in (True, False)]
            self.rng.shuffle(queries)
            yield queries

    def cold_argv(self):
        a, b = self._sets(3, False, True)
        argv = ["similar", "--k", "3", _slope_set_text(a), _slope_set_text(b), "--json"]
        return argv, lambda out: checks.check_similar_doc(a, b, True, False, json.loads(out))


WORKLOADS = {
    "fill_ladder": FillLadder,
    "fill_batch": FillBatch,
    "slope_search": SlopeSearch,
}
