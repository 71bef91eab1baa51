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

On the same six signatures, 90 one-cusp fillings and a random witness
each check that `sym_act` carries a solution onto its image filling's.

Beside it, 60 seeded lists shaped as the benchmark's fill_batch (k <= 4,
g <= 12, each cusp unfilled or on a slope of squared length 7-49) must
solve, and how many stop with a final residual above 1e-12, well inside
the 1e-10 gate, is recorded the same way as
`batch_residuals_above_1e-12`: the last digits of u and v that the JSON
report prints rest on that residual.  So are `table_entries_dropped`, the
entries of the table of solved cusp blocks that missed their gate, and
`table_entries_short_of_floor`, the kept entries whose length rows stand
short of their rounding floor (`_short_of_floor`), summed over the
signatures of both sweeps, and `table_start_residual_max`, the largest
residual of the table start (`_starts`) of seeded fill_batch-shaped lists
on those signatures."""

import math

import numpy as np
import pytest

from mgk import commensurability_xk as cx
from mgk import deformation
from mgk.deformation import GKSignature, solve_fillings
from mgk.hyptrig import FillingSpec, sign_form
from mgk.report import build_reports
from mgk.slopes_symmetry import D6Element, SlopeSetIsometry

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
        for pairs, x, doc in zip(lists, xs, build_reports(sig, specs, records)):
            assert not isinstance(x, Exception), (g, k, pairs, x)
            assert isinstance(doc, dict), (g, k, pairs, doc)
            for (p, q), cusp in zip(pairs, doc["cusps"]):
                (pc, qc), err = cusp["coefficients"], cusp["coefficients_error"]
                # the solver fills the sign form of each slope
                off = min(max(abs(pc - p), abs(qc - q)), max(abs(pc + p), abs(qc + q)))
                assert off <= err, (g, k, p, q, pc, qc, err)
    record_property("failed_first_steps", failed_first)


def image_pair(e, p, q):
    """(p, q) under e = r^rot s^refl on integer pairs, s first, with no
    sign step: s: (p, q) -> (p - q, -q), r: (p, q) -> (p - q, p)."""
    if e.refl:
        p, q = p - q, -q
    for _ in range(e.rot):
        p, q = p - q, p
    return p, q


def test_sym_act_carries_a_filling_onto_its_image_filling():
    # per signature 15 one-cusp fillings A, each with a random witness psi
    # (a permutation and a D6 element per torus, reflections included): A
    # and psi(A) are solved in one call, and sym_act(psi, x_A) is x_B once
    # r^3 = -1 has taken each image slope that is not in sign form to the
    # sign form that the solver fills
    rng = np.random.default_rng(1)
    for g, k in SIGNATURES:
        sig = GKSignature(g, k)
        for _ in range(15):
            cusp = int(rng.integers(k))
            p, q = sign_form(*draw_pairs(rng, 1)[0])
            psi = SlopeSetIsometry(
                tuple(rng.permutation(k).tolist()),
                tuple(D6Element(int(rng.integers(6)), bool(rng.integers(2))) for _ in range(k)),
            )
            image = image_pair(psi.local[cusp], p, q)
            a, b = [None] * k, [None] * k
            a[cusp], b[psi.perm[cusp]] = (p, q), sign_form(*image)
            x_a, x_b = solve_fillings(sig, [FillingSpec.from_pairs(k, a), FillingSpec.from_pairs(k, b)])
            y = cx.sym_act(psi, x_a)
            if sign_form(*image) != image:
                for _ in range(3):
                    y = cx.phi_r(y, psi.perm[cusp])
            assert np.abs(y - x_b).max() <= 1e-13, (g, k, cusp, p, q, psi)


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


def test_the_tables_of_the_swept_signatures(record_property):
    # the table of solved cusp blocks of each signature swept here: how many
    # entries missed their gate and were left out, how many kept ones stand
    # short of their rounding floor at beta_bar, and the largest residual of
    # the table start of 5 seeded fill_batch-shaped lists per signature, is
    # recorded, not asserted
    flat = deformation._table_plan()[3]
    rng = np.random.default_rng(1)
    dropped = short = 0
    start_max = 0.0
    for g, k in SIGNATURES + BATCH_SIGNATURES:
        sig = GKSignature(g, k)
        cs = deformation.solve_complete(sig)
        table, _, positions = deformation._cusp_table(sig, cs)
        dropped += len(deformation._TABLE_SLOPES) + 1 - len(positions)
        targets, at = list(positions), list(positions.values())
        blocks = table[0].ravel()[flat[at]]
        x = np.concatenate([blocks, np.full((len(targets), 1), cs.beta_bar)], axis=1)
        r, _ = deformation._evaluate(GKSignature(2, 1), x, deformation._linear_rows(targets))
        short += int(deformation._short_of_floor(r[:, :12], [cs.beta_bar] * len(r)).sum())
        specs = [FillingSpec.from_pairs(k, draw_batch_list(rng, k)).canonicalized() for _ in range(5)]
        starts, _ = deformation._starts(sig, cs, specs)
        r, _ = deformation._evaluate(sig, starts, deformation._linear_rows([pq for spec in specs for pq in spec.pairs]))
        start_max = max(start_max, float(np.abs(r).max()))
    record_property("table_entries_dropped", dropped)
    record_property("table_entries_short_of_floor", short)
    record_property("table_start_residual_max", "%.3g" % start_max)
