"""The declared range of `mgk fill` as a seeded sweep: every cusp of six
signatures from (2, 1) to (200, 64) filled with a random coprime slope
(p, q), |p|, |q| <= 3e5, of length >= sqrt(7).  Numpy seeds 1-20, one
generator per seed, which draws 10 lists per signature in turn.  Each
list must solve, pass the report's residual gate, and give back each
cusp's slope within its `coefficients_error`.

How often the one stacked Newton solve fails and the path goes on from
s = 1/2 is set by rounding, not by the range: it is recorded per seed,
not asserted, as the property `failed_first_steps` (written by
`pytest --junitxml=FILE -o junit_family=xunit1`; CI prints its sum).

Beside it, 60 seeded lists shaped as the benchmark's fill_batch (k <= 4,
g <= 12, each cusp unfilled or on a slope of squared length 7-49) must
solve, and how many stop with a final residual above 1e-12, well inside
the 1e-10 gate, is recorded the same way as
`batch_residuals_above_1e-12`: the last digits of u and v that the JSON
report prints rest on that residual."""

import math

import numpy as np
import pytest

from mgk import deformation
from mgk.deformation import GKSignature, solve_fillings
from mgk.hyptrig import FillingSpec
from mgk.report import build_reports

SIGNATURES = [(2, 1), (3, 2), (17, 16), (65, 64), (150, 1), (200, 64)]
DRAWS = 10
MAX_PQ = 300000


def draw_pairs(rng, k):
    """k coprime integer pairs with |p|, |q| <= MAX_PQ and length >= sqrt(7)."""
    pairs = []
    while len(pairs) < k:
        p, q = (int(v) for v in rng.integers(-MAX_PQ, MAX_PQ + 1, size=2))
        if math.gcd(p, q) == 1 and p * p - p * q + q * q >= 7:
            pairs.append((p, q))
    return pairs


@pytest.mark.parametrize("seed", range(1, 21))
def test_every_cusp_filling_in_the_declared_range(monkeypatch, record_property, seed):
    newton, calls = deformation._newton, []
    monkeypatch.setattr(deformation, "_newton", lambda *a: calls.append(newton(*a)) or calls[-1])
    rng = np.random.default_rng(seed)
    failed_first = 0
    for g, k in SIGNATURES:
        sig = GKSignature(g, k)
        lists = [draw_pairs(rng, k) for _ in range(DRAWS)]
        specs = [FillingSpec.from_pairs(k, pairs) for pairs in lists]
        calls.clear()
        records = []
        xs = solve_fillings(sig, specs, out=records)
        # the first `_newton` call is the stacked first step of every list
        failed_first += sum(exc is not None for exc in calls[0][2])
        for pairs, x, doc in zip(lists, xs, build_reports(sig, specs, xs, records)):
            assert not isinstance(x, Exception), (g, k, pairs, x)
            assert isinstance(doc, dict), (g, k, pairs, doc)
            for (p, q), cusp in zip(pairs, doc["cusps"]):
                (pc, qc), err = cusp["coefficients"], cusp["coefficients_error"]
                # the solver fills the sign form of each slope
                off = min(max(abs(pc - p), abs(qc - q)), max(abs(pc + p), abs(qc + q)))
                assert off <= err, (g, k, p, q, pc, qc, err)
    record_property("failed_first_steps", failed_first)


# every primitive sign-form slope of squared length 7-49, the benchmark's
# fill_batch slopes
BATCH_SLOPES = [
    (p, q) for p in range(12) for q in range(-11, 12)
    if (p > 0 or q == 1) and math.gcd(p, q) == 1 and 7 <= p * p - p * q + q * q <= 49
]
BATCH_SIGNATURES = [(g, k) for k in range(1, 5) for g in range(k + 1, 13)]


def draw_batch_list(rng, k):
    """k cusps, each unfilled with probability 1/3 or on a random slope of
    `BATCH_SLOPES`, at least one filled, as the benchmark draws them."""
    pairs = [None if rng.random() < 1 / 3 else BATCH_SLOPES[rng.integers(len(BATCH_SLOPES))] for _ in range(k)]
    if all(pq is None for pq in pairs):
        pairs[rng.integers(k)] = BATCH_SLOPES[rng.integers(len(BATCH_SLOPES))]
    return pairs


def test_fill_batch_shaped_lists_and_their_final_residuals(record_property):
    # 15 batches of 4 lists, one seeded generator
    rng = np.random.default_rng(1)
    above = 0
    for _ in range(15):
        g, k = BATCH_SIGNATURES[rng.integers(len(BATCH_SIGNATURES))]
        lists = [draw_batch_list(rng, k) for _ in range(4)]
        records = []
        solve_fillings(GKSignature(g, k), [FillingSpec.from_pairs(k, pairs) for pairs in lists], out=records)
        for pairs, rec in zip(lists, records):
            assert not isinstance(rec.x, Exception), (g, k, pairs, rec.x)
            above += float(np.abs(rec.residual).max()) > 1e-12
    record_property("batch_residuals_above_1e-12", above)
