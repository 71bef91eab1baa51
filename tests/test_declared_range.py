"""The declared range of `mgk fill` as a seeded sweep: every cusp of six
signatures from (2, 1) to (200, 64) filled with a random coprime slope
(p, q), |p|, |q| <= 3e5, of length >= sqrt(7).  Numpy seeds 1-20, one
generator per seed, which draws 10 lists per signature in turn.  Each
list must solve, pass the report's residual gate, and give back each
cusp's slope within its `coefficients_error`.

How often the one stacked Newton solve fails and the path goes on from
s = 1/2 is set by rounding, not by the range: it is recorded per seed,
not asserted, as the property `failed_first_steps` (written by
`pytest --junitxml=FILE -o junit_family=xunit1`; CI prints its sum)."""

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
