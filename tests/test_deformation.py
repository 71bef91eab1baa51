import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgk.deformation import (
    ConvergenceError,
    GKSignature,
    angle_blocks,
    cusp_angles,
    dehn_coefficients,
    jacobian,
    residuals,
    solve_complete,
    solve_filling,
    solve_fillings,
    tangent_basis,
    uv,
    varsigma_derivatives,
    varsigma_point,
)
from mgk import commensurability_xk as cx
from mgk import deformation
from mgk.hyptrig import DomainError, FillingSpec, sign_form
from mgk.slopes_symmetry import D6Element

from conftest import random_pairs

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


def bisection_alpha(g, k):
    """Independent oracle for the reduced complete-structure equation."""

    def beta(a):
        return (2.0 * math.pi - 6.0 * k * a) / (6.0 * (g - k))

    def f(a):
        return math.cos(beta(a)) - (2.0 * math.cos(a) ** 2 + 1.0) / 3.0

    lo, hi = 1e-12, math.pi / (3.0 * g)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_signature_validation():
    with pytest.raises(DomainError):
        GKSignature(1, 1)
    with pytest.raises(DomainError):
        GKSignature(3, 0)
    assert GKSignature(2, 1).n_coords == 13
    sig = GKSignature(3, 2)
    assert residuals(sig, solve_complete(sig).x0).shape == (21,)


@pytest.mark.parametrize("g, k", [(2, True), (True, 1), (3, np.int64(2)), (2.0, 1)])
def test_signature_refuses_what_is_not_an_int(g, k):
    # a bool is an int, but GKSignature(2, True) would equal GKSignature(2, 1),
    # hash as it does and share its complete structure
    with pytest.raises(DomainError, match="^g, k must be integers$"):
        GKSignature(g, k)


def test_signature_refuses_a_k_whose_point_numpy_cannot_size():
    # the largest k whose 12k+1 doubles fit numpy's sys.maxsize bytes, and
    # the next one, for which np.full raises ValueError instead of MemoryError
    k = (sys.maxsize // 8 - 1) // 12
    assert GKSignature(k + 1, k).n_coords == 12 * k + 1
    with pytest.raises(DomainError, match="^request too large for memory$"):
        GKSignature(k + 2, k + 1)


@pytest.mark.parametrize("n", [12, 1])
def test_cusps_of_refuses_a_length_that_is_not_12k_plus_1(n):
    with pytest.raises(DomainError, match=r"^coordinate vector length %d is not 12k\+1$" % n):
        deformation.cusps_of(np.zeros(n))


@pytest.mark.parametrize("g,k", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 3)])
def test_solve_complete_against_bisection(g, k):
    sig = GKSignature(g, k)
    sol = solve_complete(sig)
    assert abs(sol.alpha_bar - bisection_alpha(g, k)) < 1e-10
    # both defining equations hold to 1e-12
    assert abs(math.cos(sol.beta_bar) - (2 * math.cos(sol.alpha_bar) ** 2 + 1) / 3) < 1e-12
    assert abs(6 * (g - k) * sol.beta_bar + 6 * k * sol.alpha_bar - 2 * math.pi) < 1e-12
    assert np.max(np.abs(residuals(sig, sol.x0))) < 1e-12
    assert sol.alpha_bar < sol.beta_bar < 2 * sol.alpha_bar <= math.pi / 3 + 1e-15
    assert sol.alpha_bar <= math.pi / 6


@pytest.mark.parametrize("g,k", [(9, 2), (12, 1), (20, 3)])
def test_solve_complete_wide_signatures(g, k):
    # the matching equation's scale grows like 2/beta^2, so the root must
    # be solved against the length residual itself to stay certified
    sig = GKSignature(g, k)
    sol = solve_complete(sig)
    assert np.max(np.abs(residuals(sig, sol.x0))) < 1e-12


@pytest.fixture
def cold_cache():
    """An empty cache of complete structures, before the test and after it,
    so that the test's solve_complete runs its gate whatever ran before."""
    solve_complete.cache_clear()
    yield
    solve_complete.cache_clear()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("row, raises", [(9, True), (10, False), (11, False)])
def test_solve_complete_gate_covers_the_structure_rows(monkeypatch, cold_cache, row, raises, warm):
    # a structure row of the last cusp off by 1e-6 fails the certification
    # gate with that row's residual; the cusp rows are not gated.  A
    # signature solved before is a cache hit: no evaluation, no gate
    sig = GKSignature(9, 3)
    cached = solve_complete(sig) if warm else None
    evaluate, seen = deformation._evaluate, []

    def shifted(sig, x, rows):
        r, blocks = evaluate(sig, x, rows)
        r[0, 12 * (sig.k - 1) + row] += 1e-6
        seen.append(float(abs(r[0, 12 * (sig.k - 1) + row])))
        return r, blocks

    monkeypatch.setattr(deformation, "_evaluate", shifted)
    if warm:
        assert solve_complete(sig) is cached and seen == []
        return
    if not raises:
        solve_complete(sig)
        return
    with pytest.raises(ConvergenceError) as info:
        solve_complete(sig)
    assert info.value.residual == seen[-1]


def test_complete_21_value():
    # frozen from the bisection oracle
    sol = solve_complete(GKSignature(2, 1))
    assert abs(sol.alpha_bar - 0.493326681547299) < 1e-12
    assert abs(sol.beta_bar - (math.pi / 3 - sol.alpha_bar)) < 1e-12


def test_solve_complete_is_solved_once_per_signature(cold_cache):
    # an equal signature is a cache hit: the one certified object, whose
    # arrays no caller can write into
    cs = solve_complete(GKSignature(4, 2))
    assert solve_complete(GKSignature(4, 2)) is cs
    for a in (cs.x0, cs.forms, *cs.varsigma, cs.residual):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert solve_complete.cache_info().currsize == 1


def test_solve_complete_cache_holds_at_most_its_bound(cold_cache):
    bound = deformation._COMPLETE_CACHE
    assert bound >= 64 and solve_complete.cache_info().maxsize == bound
    sigs = [GKSignature(g, 1) for g in range(2, bound + 3)]
    solved = [solve_complete(sig) for sig in sigs]
    assert len(sigs) == bound + 1 and solve_complete.cache_info().currsize == bound
    # the least recently used went out and is solved anew, to the same bits
    again = solve_complete(sigs[0])
    assert again is not solved[0] and again.x0.tobytes() == solved[0].x0.tobytes()
    assert solve_complete(sigs[-1]) is solved[-1]
    assert solve_complete.cache_info().currsize == bound


def test_a_gate_failure_is_not_cached(monkeypatch, cold_cache):
    # each call runs the gate again and raises again, and so does each
    # filling of the signature; once the gate passes, the structure is kept
    sig = GKSignature(9, 3)
    evaluate, evals = deformation._evaluate, []

    def shifted(sig, x, rows):
        evals.append(1)
        r, blocks = evaluate(sig, x, rows)
        r[0, 0] += 1e-6
        return r, blocks

    monkeypatch.setattr(deformation, "_evaluate", shifted)
    for calls in (1, 2, 3):
        with pytest.raises(ConvergenceError, match="^complete solution residual"):
            solve_complete(sig)
        assert len(evals) == calls
    (x,) = solve_fillings(sig, [FillingSpec.from_pairs(3, [(5.0, 1.0), None, None])])
    assert isinstance(x, ConvergenceError) and len(evals) == 4
    monkeypatch.undo()
    assert solve_complete.cache_info().currsize == 0
    assert solve_complete(sig) is solve_complete(sig)


def test_the_table_is_built_by_the_first_filled_spec_alone(monkeypatch, cold_cache):
    # a cold solve_complete is the one kernel evaluation of its gate and
    # builds no table of solved cusp blocks (whose build is two
    # `_table_blocks` solves), nor does a call whose every list leaves every
    # cusp unfilled; the first filled list builds it, once, and a second
    # call builds none.  An emptied cache empties the table too
    sig, evaluate, evals, builds = GKSignature(3, 2), deformation._evaluate, [], []
    table_blocks = deformation._table_blocks
    monkeypatch.setattr(deformation, "_evaluate", lambda *a: evals.append(1) or evaluate(*a))
    monkeypatch.setattr(deformation, "_table_blocks", lambda *a: builds.append(1) or table_blocks(*a))
    cs = solve_complete(sig)
    assert (len(evals), builds) == (1, [])
    solve_fillings(sig, [FillingSpec.unfilled(2)])
    assert (len(evals), builds) == (1, [])
    solve_fillings(sig, [FillingSpec.from_pairs(2, [(3, 1), None])])
    table = deformation._cusp_table(sig, cs)
    assert len(builds) == 2
    solve_fillings(sig, [FillingSpec.from_pairs(2, [(5, 1), (3, 1)]), FillingSpec.from_pairs(2, [(40, 1), None])])
    assert len(builds) == 2 and deformation._cusp_table(sig, cs) is table
    solve_complete.cache_clear()
    solve_fillings(sig, [FillingSpec.from_pairs(2, [(3, 1), None])])
    assert len(builds) == 4 and deformation._cusp_table(sig, solve_complete(sig)) is not table


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (9, 3), (17, 16)])
def test_fills_are_the_same_with_a_cold_and_a_warm_cache(cold_cache, g, k):
    # solution and residual record byte for byte, alone and stacked, in a
    # stack that mixes real slopes, integer slopes of the table (of either
    # sign) and a list with one slope beyond the table's cut
    rng = np.random.default_rng(3900 + k)
    sig = GKSignature(g, k)
    specs = [FillingSpec.from_pairs(k, random_pairs(rng, k, 2.7, 40.0)) for _ in range(3)]
    specs.append(FillingSpec.from_pairs(k, [(3.0, 1.0)] + [None] * (k - 1)))
    table = [pq for pq in deformation._TABLE_SLOPES if rng.random() < 0.5]
    signs, picks = rng.choice([-1, 1], size=2 * k).tolist(), rng.integers(len(table), size=2 * k).tolist()
    short = [(sign * table[i][0], sign * table[i][1]) for sign, i in zip(signs, picks)]
    specs.append(FillingSpec.from_pairs(k, short[:k]))
    specs.append(FillingSpec.from_pairs(k, [(40, 1)] + short[k + 1:]))

    def solve(batch, cold):
        if cold:
            solve_complete.cache_clear()
        records = []
        solve_fillings(sig, batch, out=records)
        return [(rec.x.tobytes(), rec.residual.tobytes()) for rec in records]

    runs = [
        solve(specs, cold) if stacked else [rec for spec in specs for rec in solve([spec], cold)]
        for cold in (True, False)
        for stacked in (False, True)
    ]
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("k", [1, 3])
def test_angle_blocks_is_the_flat_layout(k):
    # alpha_l^j = x[6l + j], gamma_l^j = x[6l + 3 + j] for tetrahedron
    # l = 2c + t, beta = x[12k], as the deformation module documents
    x = np.arange(12 * k + 1, dtype=float)
    blocks = angle_blocks(x)
    assert blocks.shape == (k, 2, 2, 3)
    for c in range(k):
        assert np.array_equal(cusp_angles(x, c), blocks[c])
        for t in range(2):
            l = 2 * c + t
            assert blocks[c, t, 0].tolist() == [6 * l + j for j in range(3)]
            assert blocks[c, t, 1].tolist() == [6 * l + 3 + j for j in range(3)]
    assert x[-1] == 12 * k and 12 * k not in blocks
    # a view: writes through it land in x
    blocks[k - 1, 1, 1, 2] = -1.0
    cusp_angles(x, 0)[0, 0, 1] = -2.0
    assert x[12 * k - 1] == -1.0 and x[1] == -2.0
    for cusp in (-1, k):
        with pytest.raises(DomainError):
            cusp_angles(x, cusp)


def test_residual_beta_perturbation_linearity():
    sig = GKSignature(3, 2)
    sol = solve_complete(sig)
    x = sol.x0.copy()
    x[-1] += 1e-3
    r = residuals(sig, x)
    # the angle-sum residual is exactly linear in beta
    assert abs(r[-1] - 6 * (sig.g - sig.k) * 1e-3) < 1e-15
    # length residuals shift, sine products and ideal sums do not
    assert np.max(np.abs(r[:12])) > 1e-4
    assert np.max(np.abs(r[12:20])) < 1e-15


def test_residual_symmetric_wrong_beta():
    # all gamma = pi/3, all alpha equal, beta off the matching value but
    # satisfying the angle sum: only length residuals fire
    sig = GKSignature(2, 1)
    a = 0.45
    beta = (2 * math.pi - 6 * sig.k * a) / (6 * (sig.g - sig.k))
    x = np.empty(sig.n_coords)
    x[:12] = [a, a, a, math.pi / 3, math.pi / 3, math.pi / 3] * 2
    x[12] = beta
    r = residuals(sig, x)
    assert np.max(np.abs(r[:6])) > 1e-3
    assert np.max(np.abs(r[6:])) < 1e-14


def test_jacobian_matches_finite_differences():
    sig = GKSignature(3, 2)
    rng = np.random.default_rng(3)
    x = solve_complete(sig).x0 + 1e-3 * rng.standard_normal(sig.n_coords)
    J = jacobian(sig, x)
    h = 1e-6
    Jfd = np.empty_like(J)
    for j in range(sig.n_coords):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        Jfd[:, j] = (residuals(sig, xp) - residuals(sig, xm)) / (2 * h)
    scale = np.max(np.abs(J))
    assert np.max(np.abs(J - Jfd)) / scale < 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jacobian_rank_and_nullity(k):
    sig = GKSignature(k + 1, k)
    sol = solve_complete(sig)
    J = jacobian(sig, sol.x0)
    square = np.vstack([J, np.zeros((2 * k, sig.n_coords))])
    sv = np.linalg.svd(square, compute_uv=False)
    assert sv[10 * k] / max(sv[10 * k + 1], 1e-300) > 1e6


def test_tangent_basis_matches_numeric_nullspace():
    sig = GKSignature(3, 2)
    sol = solve_complete(sig)
    J = jacobian(sig, sol.x0)
    _, _, vt = np.linalg.svd(J, full_matrices=True)
    null_numeric = vt[10 * sig.k + 1:]
    B = tangent_basis(sig)
    q_closed, _ = np.linalg.qr(B.T)
    q_num, _ = np.linalg.qr(null_numeric.T)
    gap = np.linalg.norm(q_closed @ q_closed.T - q_num @ q_num.T, ord=2)
    assert gap < 1e-8
    assert np.max(np.abs(J @ B.T)) < 1e-12
    assert np.all(B[:, -1] == 0.0)


def test_uv_zero_at_complete_and_symmetric_points():
    sig = GKSignature(2, 1)
    sol = solve_complete(sig)
    u, v = uv(sol.x0, 0)
    assert u == 0 and v == 0
    # any point with matching gamma blocks has u = v = 0
    x = sol.x0.copy()
    angle_blocks(x)[0, :, 1] = [1.1, 1.0, math.pi - 2.1]
    u, v = uv(x, 0)
    assert u == 0 and v == 0


def test_dehn_coefficients_at_complete_is_infinite():
    sol = solve_complete(GKSignature(2, 1))
    assert dehn_coefficients(sol.x0, 0) is None


def test_dehn_coefficients_singular_when_uv_real():
    # both holonomy logs real and nonzero (possible only off the ideal
    # vertex-sum locus, i.e. far from any solution): explicit error
    sig = GKSignature(2, 1)
    x = solve_complete(sig).x0.copy()
    for j, (ga, gb) in enumerate([(1.0, 1.0), (0.8, 0.7), (1.1, 1.1)]):
        angle_blocks(x)[0, :, 1, j] = ga, gb
    u, v = uv(x, 0)
    assert u.imag == 0.0 and v.imag == 0.0 and abs(u) > 1e-3
    with pytest.raises(DomainError):
        dehn_coefficients(x, 0)


@pytest.mark.parametrize("pq", [(3, 1), (5, 1), (7, 2), (19, 11), (16, -1)])
def test_filling_round_trip(pq):
    sig = GKSignature(2, 1)
    x = solve_filling(sig, FillingSpec.from_pairs(1, [pq]))
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    p, q = dehn_coefficients(x, 0)
    assert abs(p - pq[0]) < 1e-9 and abs(q - pq[1]) < 1e-9


def test_filling_all_unfilled_returns_complete():
    sig = GKSignature(3, 2)
    x = solve_filling(sig, FillingSpec.unfilled(2))
    assert np.allclose(x, solve_complete(sig).x0)


def test_filling_rejects_short_slope():
    sig = GKSignature(2, 1)
    with pytest.raises(DomainError):
        solve_filling(sig, FillingSpec.from_pairs(1, [(2.0, 1.0)]))


def test_filling_sign_canonicalization():
    sig = GKSignature(2, 1)
    x1 = solve_filling(sig, FillingSpec.from_pairs(1, [(5.0, 1.0)]))
    x2 = solve_filling(sig, FillingSpec.from_pairs(1, [(-5.0, -1.0)]))
    assert np.allclose(x1, x2)


def test_filling_partial_complete_block_pattern():
    # unfilled cusp keeps the rigid symmetric block while the other fills
    sig = GKSignature(3, 2)
    x = solve_filling(sig, FillingSpec.from_pairs(2, [None, (5.0, 1.0)]))
    assert abs(x[0] - x[1]) < 1e-9 and abs(x[1] - x[2]) < 1e-9
    for j in range(3, 6):
        assert abs(x[j] - math.pi / 3) < 1e-9
    u, _ = uv(x, 0)
    assert abs(u) < 1e-10
    p, q = dehn_coefficients(x, 1)
    assert abs(p - 5) < 1e-9 and abs(q - 1) < 1e-9


def test_distinct_specs_give_distinct_u_tuples():
    sig = GKSignature(2, 1)
    seen = []
    for pq in [(3, 1), (5, 1), (7, 2), (10, 0)]:
        x = solve_filling(sig, FillingSpec.from_pairs(1, [pq]))
        u, _ = uv(x, 0)
        assert all(abs(u - w) > 1e-6 for w in seen)
        seen.append(u)


def test_cusp_ratio_limit():
    sig = GKSignature(2, 1)
    errs = []
    for n in (10, 20, 40, 80):
        x = solve_filling(sig, FillingSpec.from_pairs(1, [(float(n), 0.0)]))
        u, v = uv(x, 0)
        errs.append(abs(v / u - OMEGA))
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_varsigma_first_derivative_block_sums():
    sig = GKSignature(3, 2)
    first, second = varsigma_derivatives(sig)
    assert abs(first[0] + first[1] + first[2]) < 1e-15
    assert np.all(first[12:] == 0.0)
    cs = solve_complete(sig)
    s, c = math.sin(cs.alpha_bar), math.cos(cs.alpha_bar)
    # second-derivative blocks satisfy the displayed linear relation
    lhs = math.sqrt(3) * c * second[0] - s * second[3]
    rhs = 2 * math.sqrt(3) * s * (4 * c * c - 1)
    assert abs(lhs - rhs) < 1e-12
    # tangent vector lies in the closed-form tangent space
    B = tangent_basis(sig)
    coeffs, res, _, _ = np.linalg.lstsq(B.T, first, rcond=None)
    assert np.linalg.norm(B.T @ coeffs - first) < 1e-12


def test_varsigma_derivatives_are_kept_per_signature(cold_cache):
    # the read-only pair of the signature's one cached record, with the
    # same bits as a fresh build after that cache is emptied
    sig = GKSignature(3, 2)
    pair = varsigma_derivatives(sig)
    assert pair is solve_complete(GKSignature(3, 2)).varsigma
    assert varsigma_derivatives(GKSignature(3, 2)) is pair
    for v in pair:
        with pytest.raises(ValueError):
            v[0] = 1.0
    solve_complete.cache_clear()
    fresh = varsigma_derivatives(sig)
    assert fresh is not pair and all(a.tobytes() == b.tobytes() for a, b in zip(pair, fresh))


def test_varsigma_numeric_second_derivative():
    sig = GKSignature(2, 1)
    first, second = varsigma_derivatives(sig)
    h = 0.01
    pts = {m: varsigma_point(sig, m * h) for m in (-2, -1, 0, 1, 2)}
    fd1 = (-pts[2] + 8 * pts[1] - 8 * pts[-1] + pts[-2]) / (12 * h)
    fd2 = (-pts[2] + 16 * pts[1] - 30 * pts[0] + 16 * pts[-1] - pts[-2]) / (12 * h * h)
    assert np.max(np.abs(fd1 - first)) < 1e-4
    assert np.max(np.abs(fd2 - second)) < 1e-4


@pytest.mark.parametrize("t", [-0.05, 0.05])
def test_varsigma_point_ends_at_its_rounding_floor(t):
    # one Newton solve to 1e-12 can stop just below it, its length rows 427
    # times their rounding floor edge_cosh(beta) eps; the solve ends with
    # the step to the floor, which lands them 2.1 times it
    sig = GKSignature(2, 1)
    x = varsigma_point(sig, t)
    (r,), _ = deformation._evaluate(sig, x[None], deformation._linear_rows([None]))
    floor = deformation.edge_cosh(float(x[-1])) * deformation._EPS
    assert np.abs(r[:6]).max() < deformation._POLISH * floor


def test_varsigma_point_raises_where_its_solve_fails():
    # at t = 1 on (3, 2) the second-order start lies far outside the angle
    # box, and Newton meets a singular Jacobian at a residual of 2.0e16:
    # the error of its one record is raised; t = 1/2 still solves
    sig = GKSignature(3, 2)
    with pytest.raises(ConvergenceError) as info:
        varsigma_point(sig, 1.0)
    assert math.isfinite(info.value.residual)
    assert np.isfinite(varsigma_point(sig, 0.5)).all()


def test_filling_spec_parsing():
    spec = FillingSpec.parse("inf,5/1", 2)
    assert spec.pairs == (None, (5.0, 1.0))
    with pytest.raises(DomainError):
        FillingSpec.parse("inf", 2)
    with pytest.raises(DomainError):
        FillingSpec.parse("4/2,inf", 2)
    with pytest.raises(DomainError):
        FillingSpec.parse("0/0,inf", 2)
    with pytest.raises(DomainError):
        FillingSpec.parse("nope,inf", 2)
    # an integer beyond the float range
    with pytest.raises(DomainError, match="no finite slope length"):
        FillingSpec.parse("1%s/1" % ("0" * 400), 1)


@pytest.mark.parametrize(
    "pq", [(math.nan, 1.0), (math.inf, 1.0), (1e308, 1e308), (1.0, -math.inf), (10**400, 1)]
)
def test_filling_spec_rejects_non_finite_slopes(pq):
    # a NaN length would slip past the sqrt(7) gate (nan < x is False);
    # (1e308, 1e308) overflows the length, 10**400 the float conversion
    # in from_pairs and the length when the spec is built directly
    with pytest.raises(DomainError, match="no finite slope length"):
        FillingSpec.from_pairs(1, [pq])
    with pytest.raises(DomainError, match="no finite slope length"):
        FillingSpec((pq,))


@pytest.mark.parametrize("entry", ["31", (3, 1, 7), (3,), ("3", "1"), 3.0])
def test_filling_spec_rejects_entries_that_are_not_pairs(entry):
    # "31" is not the pair (3, 1), and a triple is not cut to its first two
    with pytest.raises(DomainError, match="not a pair of real numbers"):
        FillingSpec.from_pairs(1, [entry])
    with pytest.raises(DomainError, match="not a pair of real numbers"):
        FillingSpec((entry,))


def test_filling_spec_refuses_a_zero_pair_and_a_wrong_count():
    with pytest.raises(DomainError, match=r"\(0, 0\) is not a slope$"):
        FillingSpec(((0.0, 0.0),))
    with pytest.raises(DomainError, match="^expected 2 cusp entries, got 1$"):
        FillingSpec.from_pairs(2, [(5, 1)])


@pytest.mark.parametrize("seed", range(20))
def test_canonicalized_is_the_checked_spec_of_the_sign_forms(seed):
    # integer and real pairs of either sign, with (0, q) and unfilled cusps
    # among them: the spec built without a second check is the checked one
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    pairs = []
    for c, (p, q) in enumerate(random_pairs(rng, k, 2.0, 1e5)):
        kind = int(rng.integers(4))
        if kind == 0:
            pairs.append(None)
        elif kind == 1:
            pairs.append((int(round(p)) or 1, int(round(q))))
        elif kind == 2:
            pairs.append((0, int(rng.choice([-1, 1])) * (c + 1)))
        else:
            pairs.append((p, q))
    spec = FillingSpec(tuple(pairs)).canonicalized()
    checked = FillingSpec(tuple(None if pq is None else sign_form(*pq) for pq in pairs))
    assert type(spec) is FillingSpec and spec == checked and hash(spec) == hash(checked)
    assert [type(v) for pq in spec.pairs if pq for v in pq] == [type(v) for pq in checked.pairs if pq for v in pq]


# ---------------------------------------------------------------------------
# the stable edge kernel and the complete solution over a signature range

@pytest.mark.parametrize("g,k", [(10, 3), (13, 1), (33, 32), (65, 64)])
def test_solve_complete_small_beta_signatures(g, k):
    # beta is small here, and evaluated as 1 - cos(beta) the edge cosh
    # lost enough digits for these to miss their own gate
    sig = GKSignature(g, k)
    sol = solve_complete(sig)
    gate = max(1e-12, 64 * np.finfo(float).eps * deformation.edge_cosh(sol.beta_bar))
    assert np.max(np.abs(residuals(sig, sol.x0))) <= gate


def test_solve_complete_sweep():
    failed = []
    for g in range(2, 80):
        for k in range(1, g):
            try:
                solve_complete(GKSignature(g, k))
            except ConvergenceError:
                failed.append((g, k))
    assert failed == []


def test_solve_complete_spot_checks_to_200():
    # the edges and the middle of every row g <= 200; the near-diagonal
    # signatures amplify the rounding of beta(alpha) by k/(g-k)
    sigs = {(g, k) for g in range(2, 201) for k in (1, g - 1, g // 2)} | {(129, 128)}
    for g, k in sorted(sigs):
        sig = GKSignature(g, k)
        sol = solve_complete(sig)
        gate = max(1e-12, 64 * np.finfo(float).eps * deformation.edge_cosh(sol.beta_bar))
        assert np.max(np.abs(residuals(sig, sol.x0))) <= gate, (g, k)


def mp_complete(g, k):
    """(alpha_bar, beta_bar) to 50 digits: the length residual at the
    symmetric point, with beta from the angle sum, solved by mpmath."""
    import mpmath

    with mpmath.workdps(50):
        def beta(a):
            return (2 * mpmath.pi - 6 * k * a) / (6 * (g - k))

        def length(a):
            b = beta(a)
            side = (mpmath.cos(a) ** 2 + mpmath.mpf(1) / 2) / mpmath.sin(a) ** 2
            return side - mpmath.cos(b) / (1 - mpmath.cos(b))

        # the residual falls from +inf on (0, pi/(3g)]; bracket its root
        hi = mpmath.pi / (3 * g)
        a = mpmath.findroot(length, (hi / 10, hi), solver="anderson")
        assert hi / 10 < a < hi
        return a, beta(a)


@pytest.mark.parametrize(
    "g,k",
    [(2, 1), (3, 2), (10, 3), (13, 1), (54, 53), (55, 54), (58, 57), (60, 59),
     (92, 91), (129, 128), (200, 1), (200, 100), (200, 199)],
)
def test_solve_complete_matches_high_precision(g, k):
    sol = solve_complete(GKSignature(g, k))
    a, b = mp_complete(g, k)
    assert abs(sol.alpha_bar - a) <= 1e-15 * a
    assert abs(sol.beta_bar - b) <= 1e-15 * b


# the paper's isolation of the cusps: an unfilled cusp's block is the
# symmetric point at the solution's own beta

BETA_MAX = 2.0 * math.asin(1.0 / math.sqrt(3.0))


@settings(max_examples=50, deadline=None)
@given(beta=st.floats(1e-6, BETA_MAX, exclude_max=True))
def test_isolated_block_zeroes_the_length_row(beta):
    # sin a = sqrt(3) sin(beta/2) and every gamma = pi/3 solve the length
    # row side(a) = edge_cosh(beta), checked in 50 digits
    import mpmath

    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        a = mpmath.asin(mpmath.sqrt(3) * mpmath.sin(b / 2))
        side = (mpmath.cos(a) ** 2 + mpmath.mpf(1) / 2) / mpmath.sin(a) ** 2
        edge = mpmath.cos(b) / (1 - mpmath.cos(b))
        assert abs(side - edge) <= mpmath.mpf(10) ** -30 * edge


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8), g=st.integers(3, 200))
def test_unfilled_blocks_are_isolated(seed, k, g):
    sig = GKSignature(max(g, k + 1), k)
    rng = np.random.default_rng(seed)
    # a random filled subset, with at least one filled and one unfilled cusp
    filled = rng.permutation(k)[:rng.integers(1, k)]
    pairs = [pq if c in filled else None for c, pq in enumerate(random_pairs(rng, k))]
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    a = math.asin(math.sqrt(3.0) * math.sin(0.5 * x[-1]))
    for c, pq in enumerate(pairs):
        if pq is None:
            block = angle_blocks(x)[c]
            assert np.max(np.abs(block[:, 0] - a)) <= 1e-12, c
            assert np.max(np.abs(block[:, 1] - math.pi / 3.0)) <= 1e-12, c


def test_edge_cosh_matches_high_precision():
    import mpmath

    with mpmath.workdps(50):
        for beta in (1e-3, 0.03, 0.1, 1.0):
            exact = mpmath.cos(beta) / (1 - mpmath.cos(beta))
            assert abs(deformation.edge_cosh(beta) - float(exact)) <= 4e-16 * float(exact)


# ---------------------------------------------------------------------------
# the block-arrow Newton step


def loop_cusp_rows(x, targets):
    """Reference cusp rows, one scalar at a time: the residuals
    Re/Im of p*u + q*v - 2*pi*i (u when complete) and their gradients."""
    n = len(x)
    res, rows = [], []
    for c, pq in enumerate(targets):
        u, v = uv(x, c)
        grad = np.zeros((4, n))  # Re u, Im u, Re v, Im v
        gA, gB = angle_blocks(np.arange(n))[c, :, 1].tolist()
        # Re u = log(sin gA0 sin gB1 / (sin gA1 sin gB0)), Re v likewise
        re_terms = ((0, (gA[0], gB[1]), (gA[1], gB[0])), (2, (gA[1], gB[2]), (gA[2], gB[1])))
        for row, plus, minus in re_terms:
            for i in plus:
                grad[row, i] += 1.0 / math.tan(x[i])
            for i in minus:
                grad[row, i] -= 1.0 / math.tan(x[i])
        grad[1, gA[2]], grad[1, gB[2]] = 1.0, -1.0
        grad[3, gA[0]], grad[3, gB[0]] = 1.0, -1.0
        p, q = (1.0, 0.0) if pq is None else pq
        w = p * u + q * v
        res += [w.real, w.imag - (0.0 if pq is None else 2.0 * math.pi)]
        rows += [p * grad[0] + q * grad[2], p * grad[1] + q * grad[3]]
    return np.array(res), np.array(rows)


def mixed_targets(rng, k):
    pairs = random_pairs(rng, k, 8.0, 30.0)
    return [None if c % 3 == 1 else pq for c, pq in enumerate(pairs)]


def near_complete(sig, rng, scale=1e-3):
    return solve_complete(sig).x0 + scale * rng.standard_normal(sig.n_coords)


@pytest.mark.parametrize("k", [1, 3, 16])
def test_residuals_of_a_stack_are_those_of_each_point(k):
    # each row of a stacked evaluation of the kernel, the points with targets
    # of their own, has the bits of the point evaluated alone: the stacked
    # solver relies on it
    rng = np.random.default_rng(70 + k)
    sig = GKSignature(k + 3, k)
    x = np.array([near_complete(sig, rng) for _ in range(4)])
    targets = [mixed_targets(rng, k) for _ in x]
    stacked, _ = deformation._evaluate(sig, x, deformation._linear_rows(sum(targets, [])))
    assert stacked.shape == (4, sig.n_coords)
    for row, point, ts in zip(stacked, x, targets):
        (alone,), _ = deformation._evaluate(sig, point[None], deformation._linear_rows(ts))
        assert row.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_residuals_refuse_a_stack_of_points(n):
    # residuals takes one point: a stack of n points, an empty one too, is
    # refused as a point of the wrong shape is
    sig = GKSignature(3, 2)
    x = np.tile(solve_complete(sig).x0, (n, 1))
    with pytest.raises(DomainError, match="^expected 25 coordinates, got \\(%d, 25\\)$" % n):
        residuals(sig, x)


@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_block_step_matches_dense_solve(k):
    rng = np.random.default_rng(40 + k)
    for g in (k + 1, k + 4):
        sig = GKSignature(g, k)
        targets = mixed_targets(rng, k)
        x = near_complete(sig, rng)
        r, blocks = deformation._evaluate(sig, x[None], deformation._linear_rows(targets))
        step = deformation._block_step(sig, r, *blocks())[0]
        cusp_res, cusp_rows = loop_cusp_rows(x, targets)
        dense = np.vstack([jacobian(sig, x), cusp_rows])
        rhs = np.concatenate([residuals(sig, x), cusp_res])
        # same residuals, in another row order
        assert np.allclose(np.sort(rhs), np.sort(r[0]), rtol=0.0, atol=1e-13)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 3])
def test_block_entries_match_finite_differences(k):
    rng = np.random.default_rng(7 + k)
    sig = GKSignature(k + 2, k)
    rows = deformation._linear_rows(mixed_targets(rng, k))
    x = near_complete(sig, rng, 1e-2)
    _, blocks = deformation._evaluate(sig, x[None], rows)
    A, dbeta = blocks()
    J = deformation._dense(sig, A, dbeta[0])
    h = 1e-6
    Jfd = np.empty_like(J)
    for j in range(sig.n_coords):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        rp, rm = (deformation._evaluate(sig, xs[None], rows)[0][0] for xs in (xp, xm))
        Jfd[:, j] = (rp - rm) / (2 * h)
    assert np.max(np.abs(J - Jfd)) / np.max(np.abs(J)) < 1e-7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), extra=st.integers(1, 3))
def test_filling_property_random_long_slopes(seed, k, extra):
    sig = GKSignature(k + extra, k)
    pairs = random_pairs(np.random.default_rng(seed), k)
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    for c, (p, q) in enumerate(FillingSpec.from_pairs(k, pairs).canonicalized().pairs):
        pc, qc = dehn_coefficients(x, c)
        assert abs(pc - p) < 1e-9 and abs(qc - q) < 1e-9


SQRT7_SLOPES = [(3.0, 1.0), (3.0, 2.0), (1.0, 3.0), (2.0, 3.0), (2.0, -1.0), (1.0, -2.0)]


@pytest.mark.parametrize("k", [16, 32, 64])
def test_filling_newton_steps_flat_in_k(monkeypatch, k):
    # every cusp on a threshold slope: warm-starting each step at the
    # previous point took 116, 312 and 846 steps, starting at t = 20/sqrt(7)
    # took 13-14, with the first tangent in closed form 9, with the point at
    # s = sqrt(7)/5 corrected only to a merit of 1e-3, 7, 5-6 in one Newton
    # solve from the second-order start at the complete structure, 4, 4
    # and 5 from the fourth-order start, 2 from the first block-arrow step
    # of the table, and 1 from the table's paths in beta
    sig = GKSignature(k + 1, k)
    pairs = [SQRT7_SLOPES[c % 6] for c in range(k)]
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    assert len(calls) == 1
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    for c, (p, q) in enumerate(FillingSpec.from_pairs(k, pairs).canonicalized().pairs):
        pc, qc = dehn_coefficients(x, c)
        assert abs(pc - p) < 1e-9 and abs(qc - q) < 1e-9


@pytest.mark.parametrize("k", [2, 16, 64])
def test_filling_block_steps_with_tangent_predictor(monkeypatch, k):
    # a sqrt(7) slope on cusp 0 took 22 block steps with the secant predictor
    # at ratio 1.5, and 13-14 from t = 20/sqrt(7); with the tangent at the
    # complete structure in closed form and the later one a block step, 9,
    # and 7 with the point at s < 1 corrected only to 1e-3; from the
    # second-order start it was one Newton solve of 5, from the
    # fourth-order start one of 4, 4 and 5, from the first block-arrow step
    # of the table one of 2, 2 and 1, the step to the floor included, and
    # from the table's paths in beta it is one block solve
    sig = GKSignature(k + 1, k)
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(k, [(3.0, 1.0)] + [None] * (k - 1)))
    assert len(calls) == 1
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    pc, qc = dehn_coefficients(x, 0)
    assert abs(pc - 3.0) < 1e-9 and abs(qc - 1.0) < 1e-9


def table_path(sig, cs, pq):
    """The coefficients c_0..c_5 of the path in delta = beta - beta_bar of
    the tabulated block of target pq in the table of sig, whose complete
    structure is cs, as a (6, 12) list: its orbit's path carried onto pq by
    the plan's index map."""
    flat = deformation._table_plan()[3]
    table, _, positions = deformation._cusp_table(sig, cs)
    return table.reshape(6, -1)[:, flat[positions[pq]]].tolist()


def table_start(sig, cs, spec):
    """The start of `_starts` for the canonical spec, written out in plain
    floats: per cusp its `table_path` where its target is in the table of
    sig, else the complete block's path with c_0 the target's own
    fourth-order block with beta held, the complete block plus the orders
    of `_own_forms`; the total-angle polynomial 6(g-k)(beta_bar + delta)
    - 2 pi + the sum of the alphas of every path, each coefficient a
    `math.fsum`; its root delta by scalar Newton from the root of its
    linear part; and the point of the paths at delta, by Horner, with
    beta_bar + delta."""
    corner, alphas = 6.0 * (sig.g - sig.k), [0, 1, 2, 6, 7, 8]
    positions = deformation._cusp_table(sig, cs)[2]
    paths = []
    for pq in spec.pairs:
        if pq in positions:
            paths.append(table_path(sig, cs, pq))
            continue
        (own,), _ = deformation._own_forms(cs.cot_scale, cs.forms, [pq])
        block = cs.x0[:12].tolist()
        for order in own.tolist():
            block = [b + c for b, c in zip(block, order)]
        paths.append([block] + table_path(sig, cs, None)[1:])
    p = [math.fsum([c[n][j] for c in paths for j in alphas]) for n in range(6)]
    p[0] = math.fsum([corner * cs.beta_bar, -2.0 * math.pi] + [c[0][j] for c in paths for j in alphas])
    p[1] = math.fsum([corner] + [c[1][j] for c in paths for j in alphas])
    d = -p[0] / p[1]
    for _ in range(deformation._MAX_ITER):
        value = slope = 0.0
        for c in reversed(p):
            slope = slope * d + value
            value = value * d + c
        step = value / slope
        d -= step
        if not abs(step) > deformation._EPS * abs(d):
            break
    point = []
    for c in paths:
        for i in range(12):
            b = c[5][i]
            for n in range(4, -1, -1):
                b = b * d + c[n][i]
            point.append(b)
    return np.array(point + [cs.beta_bar + d])


def fail_first_newton(mp, only=None):
    """Make the next `_newton` call report each of its points, or only the
    one at position `only`, as failed, as if the continuation's first step
    were too long: a path that reaches s = 1 in one step then halves it,
    and solves a point at s = 1/2 first."""
    newton, calls = deformation._newton, []

    def once(*args):
        records = newton(*args)
        if not calls:
            calls.append(1)
            records = [
                deformation.Solved(ConvergenceError("forced failure", 1.0)) if only in (None, i) else rec
                for i, rec in enumerate(records)
            ]
        return records

    mp.setattr(deformation, "_newton", once)


@pytest.mark.parametrize(
    "g, pairs", [(3, [(5.0, 1.0), None]), (17, [SQRT7_SLOPES[c % 6] for c in range(16)])]
)
def test_path_predicts_with_the_jet_and_corrects_with_one_step(monkeypatch, g, pairs):
    # after a first step made to fail, from the table start of `_starts`
    # (both lists are tabulated), the path solves s = 1/2 and then s = 1,
    # each from the last solved point plus the change of the jet's Taylor
    # polynomial; the point at s = 1/2 is one Newton step
    sig = GKSignature(g, len(pairs))
    spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()
    cs = solve_complete(sig)
    ((c1, c2, c3, c4),) = deformation._complete_jet(sig, cs, [spec])
    fail_first_newton(monkeypatch)
    steps, newton, seen = count_block_steps(monkeypatch), deformation._newton, []

    def spy(sig, x0, rows, tol):
        before = len(steps)
        records = newton(sig, x0, rows, tol)
        seen.append((x0[0].copy(), tol, len(steps) - before, records[0].x))
        return records

    monkeypatch.setattr(deformation, "_newton", spy)
    x = solve_filling(sig, spec)
    first, (half, tol_half, steps_half, x_half), (one, tol_one, _, x_one) = seen
    assert first[0].tobytes() == table_start(sig, cs, spec).tobytes()
    # the Taylor coefficients c_n = x^(n)/n!, from s = 0 and then from s = 1/2
    assert half.tobytes() == (cs.x0 + 0.5 * c1 + 0.25 * c2 + 0.125 * c3 + 0.0625 * c4).tobytes()
    assert tol_half is None and steps_half == 1
    assert one.tobytes() == (x_half + 0.5 * c1 + 0.75 * c2 + 0.875 * c3 + 0.9375 * c4).tobytes()
    assert tol_one == deformation._FILL_TOL and x_one.tobytes() == x.tobytes()


def tangent_errors(monkeypatch, g, k, tight):
    """The directions c1 + 2s c2 + 3s^2 c3 + 4s^3 c4 that the path's
    predictor takes from each solved point short of s = 1 of a sqrt(7)
    path whose first step is made to fail, the derivative of the jet's
    Taylor polynomial at s, against
    the central difference of solves at s +- h from that point: per point,
    s and the error relative to the central difference.  With `tight` the
    point at s = 1/2 is solved to _FILL_TOL instead of corrected by one
    Newton step."""
    sig = GKSignature(g, k)
    pairs = [(3.0, 1.0)] + [None] * (k - 1)
    cs = solve_complete(sig)
    ((c1, c2, c3, c4),) = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs).canonicalized()])
    newton, solved = deformation._newton, []

    def spy(sig, x0, rows, tol):
        if tight and tol is None:
            tol = deformation._FILL_TOL
        records = newton(sig, x0, rows, tol)
        solved.append((tol, records[0].x))
        return records

    monkeypatch.setattr(deformation, "_newton", spy)
    fail_first_newton(monkeypatch)
    solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    monkeypatch.undo()
    # the failed first step, the point at s = 1/2 and s = 1
    assert len(solved) == 3
    h, errors = 1e-4, []
    for s, x in [(0.0, cs.x0), (0.5, solved[1][1])]:
        ends = []
        for sh in (s + h, s - h):
            # p u + q v = 2 pi i s, which at s = -h is the filling -(p, q) / h
            L, S, o = deformation._linear_rows(pairs)
            o[:, 11] *= sh
            (end,) = deformation._newton(sig, x[None], (L, S, o), 1e-12)
            assert not isinstance(end.x, Exception), (s, sh)
            ends.append(end.x)
        fd = (ends[0] - ends[1]) / (2.0 * h)
        direction = c1 + 2.0 * s * c2 + 3.0 * s * s * c3 + 4.0 * s ** 3 * c4
        errors.append((s, np.max(np.abs(direction - fd)) / np.max(np.abs(fd))))
    return errors


@pytest.mark.parametrize("g, k", [(3, 2), (17, 16)])
def test_filling_tangent_matches_central_difference(monkeypatch, g, k):
    # the direction every predictor of the path starts from, the jet's x'
    # at the complete structure, is the path's tangent there: 8.1e-10 at
    # (3, 2) and 1.5e-10 at (17, 16) against the central difference
    ((s, err), _) = tangent_errors(monkeypatch, g, k, tight=True)
    assert s == 0.0 and err <= 1e-5


@pytest.mark.parametrize("g, k", [(3, 2), (17, 16)])
def test_filling_tangent_at_loose_points(monkeypatch, g, k):
    # at the point s = 1/2 corrected by one Newton step, the predictor's
    # direction c1 + c2 + 3/4 c3 + 1/2 c4 is off the path's tangent by the
    # jet's truncation alone, 1.3e-2 at (3, 2) and 3.9e-3 at (17, 16) (with
    # the second-order jet's x' + x''/2, 8.4e-2 and 2.4e-2), and by the same
    # to 1e-9 as at the point solved to _FILL_TOL
    (_, (s, loose)) = tangent_errors(monkeypatch, g, k, tight=False)
    (_, (_, tight)) = tangent_errors(monkeypatch, g, k, tight=True)
    assert s == 0.5 and loose <= 0.02 and abs(loose - tight) <= 1e-9


def jet_pairs(seed, k, integer):
    """Slopes of length 2.7 to 40 on k cusps, real or rounded to integers,
    about 30 % of the cusps but never all of them left unfilled."""
    rng = np.random.default_rng(seed)
    pairs = random_pairs(rng, k, 2.7, 40.0)
    if integer:
        pairs = [(float(round(p)), float(round(q))) for p, q in pairs]
    unfilled = rng.random(k) < 0.3
    unfilled[rng.integers(k)] = False
    return [None if off else pq for pq, off in zip(pairs, unfilled)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.integers(2, 200),
    k=st.sampled_from([1, 2, 3, 5, 8, 16, 33, 64]),
    integer=st.booleans(),
)
def test_first_tangent_in_closed_form(seed, g, k, integer):
    # the continuation's tangent at s = 0 is the block-arrow solve of
    # J dx/ds = 2 pi e_11 at the complete structure, in closed form
    sig = GKSignature(max(g, k + 1), k)
    pairs = jet_pairs(seed, k, integer)
    cs = solve_complete(sig)
    rows = deformation._linear_rows(pairs)
    _, blocks = deformation._evaluate(sig, cs.x0[None], rows)
    rhs = np.zeros((1, sig.n_coords))
    rhs[0, :-1].reshape(k, 12)[:, 11] = rows[2][:, 11]
    solved = deformation._block_step(sig, rhs, *blocks())[0]
    closed = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs)])[0, 0]
    assert np.max(np.abs(closed - solved)) <= 1e-13 * np.max(np.abs(solved))
    # each filled cusp moves with du/ds = 2 pi i / (p + q omega), v = omega u
    h = 1e-5
    for c, pq in enumerate(pairs):
        du = (uv(cs.x0 + h * closed, c)[0] - uv(cs.x0 - h * closed, c)[0]) / (2.0 * h)
        if pq is None:
            assert du == 0.0
        else:
            want = 2j * math.pi / (pq[0] + pq[1] * OMEGA)
            assert abs(du - want) <= 1e-7 * abs(want), (c, pq)


def jet_alone(sig, cs, spec):
    """The jet of one spec, cusp by cusp in Python floats: the oracle of
    `_complete_jet`, with its forms (`_taylor_forms`) in the same order of
    operations."""
    c, F = math.pi / (2.0 * cs.cot_scale), cs.forms.tolist()
    cusps = []
    for pq in spec.pairs:
        x, Q = [0.0, 0.0, 0.0], 0.0
        if pq is not None:
            p, q = pq
            f = c / (p * p - p * q + q * q)
            x, Q = [(2.0 * q - p) * f, -(p + q) * f, (2.0 * p - q) * f], 3.0 * c * f
        cusps.append((x, Q))
    beta = -cs.beta_quartic * math.fsum(Q * Q for _, Q in cusps)
    jet = np.zeros((4, sig.n_coords))
    jet[3, -1] = beta
    for c, (x, Q) in enumerate(cusps):
        block = jet[:, 12 * c:12 * c + 12].reshape(4, 2, 2, 3)
        for j, xj in enumerate(x):
            sq = xj * xj
            forms = [xj, 3.0 * sq - 2.0 * Q, xj * sq]
            for n, form in enumerate(forms):
                for m in range(2):
                    block[n, 0, m, j] = form * F[n][m]
                    block[n, 1, m, j] = block[n, 0, m, j] * (-1.0 if n % 2 == 0 else 1.0)
            for m in range(2):
                block[3, :, m, j] = (sq * sq) * F[3][m] + (sq * Q) * F[4][m] + (Q * Q) * F[5][m]
            block[3, :, 0, j] += cs.beta_slope * beta
    return jet


_JET_PAIR = st.one_of(
    st.none(), st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)).filter(lambda pq: pq != (0, 0))
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 64), extra=st.integers(1, 136), n=st.integers(0, 8))
def test_complete_jet_of_a_stack_is_that_of_each_spec(data, k, extra, n):
    # bit for bit, whatever the specs beside it and their unfilled cusps
    sig = GKSignature(k + extra, k)
    cs = solve_complete(sig)
    specs = [FillingSpec.from_pairs(k, data.draw(st.lists(_JET_PAIR, min_size=k, max_size=k))) for _ in range(n)]
    specs = [spec.canonicalized() for spec in specs]
    jets = deformation._complete_jet(sig, cs, specs)
    assert jets.shape == (n, 4, sig.n_coords)
    for spec, jet in zip(specs, jets):
        alone = deformation._complete_jet(sig, cs, [spec])[0]
        assert jet.tobytes() == alone.tobytes() == jet_alone(sig, cs, spec).tobytes()


def taylor_residual(sig, cs, jet, pairs, s):
    """|r| of the square system of `pairs` at s (cusp rows p u + q v =
    2 pi i s) at the jet's Taylor polynomial x0 + s c1 + ... + s^4 c4."""
    L, S, o = deformation._linear_rows(pairs)
    o[:, 11] *= s
    x = cs.x0 + s * jet[0] + s ** 2 * jet[1] + s ** 3 * jet[2] + s ** 4 * jet[3]
    (r,), _ = deformation._evaluate(sig, x[None], (L, S, o))
    return np.abs(r)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 40), k=st.integers(1, 8))
def test_the_start_is_fourth_order(seed, g, k):
    # the path x(s) solves the square system at every s, so the residual
    # of its Taylor polynomial to order 4 falls as s^5: by 32 from s = h to
    # h/2, where a wrong term of order n <= 4 gives 2^n (32.00 to 32.05
    # over 300 seeded draws)
    sig = GKSignature(max(g, k + 1), k)
    rng = np.random.default_rng(seed)
    pairs = random_pairs(rng, k, math.sqrt(7.0), 40.0)
    unfilled = rng.random(k) < 0.4
    unfilled[rng.integers(k)] = False
    spec = FillingSpec.from_pairs(k, [None if off else pq for pq, off in zip(pairs, unfilled)]).canonicalized()
    cs = solve_complete(sig)
    jet = deformation._complete_jet(sig, cs, [spec])[0]
    h = 0.02 / np.abs(jet[0]).max()
    r = taylor_residual(sig, cs, jet, spec.pairs, h)
    assert 2.0 ** 4.5 < r.max() / taylor_residual(sig, cs, jet, spec.pairs, h / 2).max() < 2.0 ** 5.5
    # the total angle is linear, so each order meets it, beta's c4 and the
    # alphas that follow it too: to rounding (a beta_quartic 1 % off leaves
    # 2e-10, below the sup-norm of the other rows)
    assert r[-1] < 1e-13
    # x''' moves only the alphas of the filled cusps: not beta, no gamma
    c3 = angle_blocks(jet[2])
    assert jet[2, -1] == 0.0 and not c3[:, :, 1].any()
    # beta moves at order 4, and an unfilled cusp follows it as the complete
    # block at its own beta does, alpha = asin(sqrt(3) sin(beta/2)), gamma = pi/3
    step = 1e-6
    alpha = [math.asin(math.sqrt(3.0) * math.sin(0.5 * (cs.beta_bar + d))) for d in (step, -step)]
    slope = (alpha[0] - alpha[1]) / (2.0 * step)
    beta4 = jet[3, -1]
    assert beta4 < 0.0
    for c, pq in enumerate(spec.pairs):
        if pq is None:
            assert not cusp_angles(jet[0], c).any() and not cusp_angles(jet[1], c).any()
            assert not c3[c].any() and not cusp_angles(jet[3], c)[:, 1].any()
            assert np.allclose(cusp_angles(jet[3], c)[:, 0], slope * beta4, rtol=1e-8, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.integers(2, 200),
    k=st.sampled_from([1, 2, 3, 5, 8, 16, 33, 64]),
    integer=st.booleans(),
)
def test_jet_curvature_matches_central_difference(seed, g, k, integer):
    # the continuation's curvature d2x/ds2 at s = 0 against the second
    # difference of Newton solves at s = +-h, each from its Euler step
    sig = GKSignature(max(g, k + 1), k)
    pairs = jet_pairs(seed, k, integer)
    cs = solve_complete(sig)
    dx, ddx = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs)])[0, :2] * [[1.0], [2.0]]
    h, ends = 1e-3, []
    for sh in (h, -h):
        L, S, o = deformation._linear_rows(pairs)
        o[:, 11] *= sh
        (end,) = deformation._newton(sig, (cs.x0 + sh * dx)[None], (L, S, o), 1e-10)
        assert not isinstance(end.x, Exception), sh
        ends.append(end.x)
    fd = (ends[0] + ends[1] - 2.0 * cs.x0) / h ** 2
    assert np.max(np.abs(ddx - fd)) <= 1e-5 * np.max(np.abs(fd))
    assert ddx[-1] == 0.0
    for c, pq in enumerate(pairs):
        if pq is None:
            assert not cusp_angles(ddx, c).any(), c


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (17, 16), (150, 1), (200, 64)])
def test_curvature_blocks_solve_the_kernel_block(g, k):
    # the closed-form curvature blocks N solve A N^T = [-kappa K; -mu M]
    # with A the kernel's block of a complete cusp at the complete structure
    sig = GKSignature(g, k)
    cs = solve_complete(sig)
    _, blocks = deformation._evaluate(sig, cs.x0[None], deformation._linear_rows([None] * k))
    A = blocks()[0][0]
    sa, ca = math.sin(cs.alpha_bar), math.cos(cs.alpha_bar)
    kappa, mu = (1.0 - 4.0 * ca * ca) / (2.0 * sa ** 4), -1.5 * (1.0 + 4.0 * ca * ca)
    # the coefficients of x1^2, x1 x2, x2^2 in x_j^2 + 2 x_{j+1} x_{j+2} and
    # x_j^2 - x_{j+1}^2, with x3 = -x1 - x2
    K = [[1.0, -2.0, -2.0], [-2.0, -2.0, 1.0], [1.0, 4.0, 1.0]]
    M = [[1.0, 0.0, -1.0], [-1.0, -2.0, 0.0]]
    R = np.zeros((12, 3))
    R[0:3] = R[3:6] = -kappa * np.array(K)
    R[8:10] = -mu * np.array(M)
    want = np.linalg.solve(A, R).T
    # x'' = 2 c2, whose (alpha, gamma) are 2 cs.forms[1] times 3 x_j^2 - 2Q = K_j
    ca, cg = cs.forms[1]
    N = np.tile(np.concatenate([2.0 * ca * np.array(K), 2.0 * cg * np.array(K)]), (2, 1)).T
    assert np.max(np.abs(N - want)) <= 1e-13 * np.max(np.abs(want))
    # both tetrahedra of the cusp get the same values, whose alpha sum vanishes
    assert np.array_equal(N[:, :6], N[:, 6:])
    assert np.max(np.abs(N[:, :3].sum(axis=1))) <= 1e-15 * np.max(np.abs(N))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.integers(2, 200),
    k=st.sampled_from([1, 2, 3, 5, 8, 16, 33, 64]),
)
def test_loose_intermediate_points_give_the_same_filling(seed, g, k):
    # a point short of s = 1, here at s = 1/2 after a first step made to
    # fail, only feeds the next predictor: correcting it with one Newton
    # step instead of solving it to _FILL_TOL leaves the filling where it was
    sig = GKSignature(max(g, k + 1), k)
    rng = np.random.default_rng(seed)
    pairs = random_pairs(rng, k, math.sqrt(7.0), 40.0)
    unfilled = rng.random(k) < 0.3
    unfilled[rng.integers(k)] = False
    spec = FillingSpec.from_pairs(k, [None if off else pq for pq, off in zip(pairs, unfilled)])
    with pytest.MonkeyPatch.context() as mp:
        fail_first_newton(mp)
        x = solve_filling(sig, spec)
    newton = deformation._newton

    def tight_short_of_one(sig, x0, rows, tol):
        # the corrector of a point short of s = 1, whose cusp rows aim at
        # 2 pi s < 2 pi, solved to the gate; the steps at s = 1 as they are
        if tol is None and rows[2][:, 11].max() < 2.0 * math.pi:
            tol = deformation._FILL_TOL
        return newton(sig, x0, rows, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deformation, "_newton", tight_short_of_one)
        fail_first_newton(mp)
        tight = solve_filling(sig, spec)
    assert np.max(np.abs(x - tight)) < 1e-12


def warm_start_continuation(sig, pairs, l_safe=20.0, tol=1e-10):
    """Oracle: a continuation over the schedule of ratio 1.5 in t, each
    Newton started at the previous point of the path, on the slopes
    shorter than l_safe scaled by t.  A slope of length l_safe or more is
    held at its target, where scaled by t its cusp row's rounding floor,
    about (|t p| + |t q|) eps, would stand over the gate."""
    spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()

    def rows_at(t):
        targets = [pq if pq is None or math.sqrt(pq[0] * pq[0] - pq[0] * pq[1] + pq[1] * pq[1]) >= l_safe
                   else (t * pq[0], t * pq[1]) for pq in spec.pairs]
        return deformation._linear_rows(targets)

    def newton(x, t):
        (rec,) = deformation._newton(sig, x[None], rows_at(t), tol)
        if isinstance(rec.x, Exception):
            raise rec.x
        return rec.x

    t = max(1.0, l_safe / spec.min_filled_length())
    x = newton(solve_complete(sig).x0, t)
    rho = 1.5
    while t > 1.0:
        t_next = max(1.0, t / rho)
        try:
            x = newton(x, t_next)
        except ConvergenceError:
            rho = 1.0 + (rho - 1.0) / 2.0
            assert t - max(1.0, t / rho) >= 1e-4
            continue
        t = t_next
    return x


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    extra=st.integers(1, 3),
    threshold=st.booleans(),
)
def test_filling_predictor_stays_on_the_warm_start_branch(seed, k, extra, threshold):
    sig = GKSignature(k + extra, k)
    rng = np.random.default_rng(seed)
    pairs = [None if rng.random() < 0.25 else pq for pq in random_pairs(rng, k, 2.7, 20.0)]
    if threshold or all(pq is None for pq in pairs):
        pairs[0] = SQRT7_SLOPES[rng.integers(6)]
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    assert np.max(np.abs(x - warm_start_continuation(sig, pairs))) < 1e-9


@pytest.mark.parametrize(
    "g, pairs",
    [
        (2, [(6.0, 1.0)]),
        (2, [(40.0, 1.0)]),
        (3, [(40.0, 1.0), None]),
        (9, [(7.0, 2.0), (5.0, -1.0), None]),
        (2, [(3.0, 1.0)]),
        (9, [(2.0, 3.0), (7.0, 2.0), None]),
    ],
)
def test_filling_long_slopes_take_one_newton_solve(monkeypatch, g, pairs):
    # every filled slope of length >= sqrt(7) is solved at s = 1 straight
    # from its start at the complete structure: one Newton solve to the
    # gate, which ends with one step to the rounding floor where the length
    # rows stop above _POLISH times it: for 40/1, from its start off the
    # table, 136 (g = 2) and 197 (g = 3) times; from the table start 6/1
    # and 3/1 at g = 2 stop 2.1 and 1.9 times it after their one block
    # step, and the two lists at g = 9 at most 2.8 times
    sig, spec = GKSignature(g, len(pairs)), FillingSpec.from_pairs(len(pairs), pairs)
    tols, newton = [], deformation._newton
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deformation, "_newton", lambda *a: tols.append(a[3]) or newton(*a))
        x = solve_filling(sig, spec)
    assert tols == [deformation._FILL_TOL]
    assert np.max(np.abs(x - warm_start_continuation(sig, pairs))) < 1e-9
    (((_, floor),),) = newton_block_steps(monkeypatch, lambda: solve_filling(sig, spec))
    assert floor == (pairs[0] == (40.0, 1.0))


def test_filling_the_sqrt7_gate_admits_is_routed_by_the_gate(monkeypatch):
    # (3, 1 + 1e-12) has length sqrt(7) - 1.9e-13: admitted by the gate's
    # sqrt(7) - 1e-12, so it is solved, in one Newton solve to s = 1; its
    # length row stops 3.7 times its rounding floor, below _POLISH, so no
    # step to the floor follows
    sig, spec = GKSignature(2, 1), FillingSpec.from_pairs(1, [(3.0, 1.0 + 1e-12)])
    assert spec.is_hyperbolic() and spec.min_filled_length() < math.sqrt(7.0)
    x = solve_filling(sig, spec)
    (((_, floor),),) = newton_block_steps(monkeypatch, lambda: solve_filling(sig, spec))
    assert floor == 0
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    assert max(abs(a - b) for a, b in zip(dehn_coefficients(x, 0), (3.0, 1.0 + 1e-12))) < 1e-9


def test_filling_predictor_stays_on_the_warm_start_branch_k16():
    k = 16
    sig = GKSignature(k + 1, k)
    pairs = [SQRT7_SLOPES[c % 6] if c % 4 else (5.0, 1.0) for c in range(k)]
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    assert np.max(np.abs(x - warm_start_continuation(sig, pairs))) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [1, 3])
@pytest.mark.parametrize("short", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.0, -1.0)])
@pytest.mark.parametrize("rest", [None, (5.0, 1.0)])
def test_filling_below_threshold_fails_honestly(monkeypatch, k, extra, short, rest):
    # no hyperbolic structure below length sqrt(7): the gate refuses the
    # filling with a DomainError that names the short length, before the
    # complete structure is solved or any block solve is made, alone or
    # in a batch
    sig = GKSignature(k + extra, k)
    spec = FillingSpec.from_pairs(k, [short] + [rest] * (k - 1))
    assert not spec.is_hyperbolic()
    calls, step, complete = [], deformation._block_step, deformation.solve_complete
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    monkeypatch.setattr(deformation, "solve_complete", lambda *a: calls.append(0) or complete(*a))
    message = "slope of length %.6g below the hyperbolicity threshold sqrt(7)" % spec.min_filled_length()
    with pytest.raises(DomainError) as info:
        solve_filling(sig, spec)
    assert str(info.value) == message
    (batch,) = solve_fillings(sig, [spec])
    assert isinstance(batch, DomainError) and str(batch) == message
    assert calls == []


# the declared range of solve_filling: g <= 200, k <= 64

SWEEP_G = list(range(2, 41)) + [50, 60, 80, 100, 150, 200]


@pytest.mark.parametrize("pq", [(3.0, 1.0), (5.0, 1.0), (1.0, 3.0), (7.0, 2.0)])
def test_filling_sweep_to_200(pq):
    # one slope on the first cusp, the others complete, at the edges and the
    # middle of each row.  The length rows have scale edge_cosh(beta), about
    # 4e4 at g = 150: a step test that weighed them against the cusp rows
    # unscaled failed every case with g in {150, 200} and k <= 2
    failed = []
    for g in SWEEP_G:
        for k in sorted({1, 2, g // 2, g - 1}):
            if k >= g or k > 64:
                continue
            sig = GKSignature(g, k)
            try:
                x = solve_filling(sig, FillingSpec.from_pairs(k, [pq] + [None] * (k - 1)))
            except ConvergenceError:
                failed.append((g, k))
                continue
            assert np.max(np.abs(residuals(sig, x))) < 1e-10, (g, k)
            pc, qc = dehn_coefficients(x, 0)
            assert abs(pc - pq[0]) < 1e-9 and abs(qc - pq[1]) < 1e-9, (g, k)
    assert failed == []


@pytest.mark.parametrize(
    "g, k, seed",
    [(65, 64, 2027), (200, 64, 2027), (65, 64, 1), (65, 64, 11), (65, 64, 18), (17, 16, 2027), (33, 32, 2027)],
)
def test_filling_every_cusp_up_to_3e5(g, k, seed):
    # the declared bound on the slopes: every cusp filled with coprime
    # |p|, |q| <= 3e5.  Up to 5e5 most such fillings at k = 64 failed.
    # Draws 6, 8 and 1 of seeds 1, 11 and 18 stopped at residuals of 1.06e-10
    # to 1.27e-10 while a line search rejected Newton's full steps.
    sig = GKSignature(g, k)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        pairs = []
        while len(pairs) < k:
            p, q = (int(v) for v in rng.integers(-300000, 300001, size=2))
            if math.gcd(p, q) == 1:
                pairs.append((p, q))
        x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
        assert np.max(np.abs(residuals(sig, x))) < 1e-10
        for c, (p, q) in enumerate(pairs):
            # the solver fills the sign form of each slope
            pc, qc = dehn_coefficients(x, c)
            err = min(max(abs(pc - p), abs(qc - q)), max(abs(pc + p), abs(qc + q)))
            assert err <= 1e-10 * max(abs(p), abs(q)), (c, p, q, pc, qc)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("g, slope", [(2, "9876543/1"), (1000, "5/1")])
def test_filling_below_the_rounding_floor_is_refused_before_any_step(monkeypatch, cold_cache, g, slope, warm):
    # the cusp row of 9876543/1 rounds in steps of (|p| + |q|) eps = 21.9
    # fill gates, and at g = 1000 the length rows in steps of
    # edge_cosh(beta) eps = 4.05 gates: Newton would only grind there
    if warm:
        solve_complete(GKSignature(g, 1))
    evals, evaluate = [], deformation._evaluate
    monkeypatch.setattr(deformation, "_evaluate", lambda *a: evals.append(1) or evaluate(*a))
    monkeypatch.setattr(deformation, "_newton", None)
    with pytest.raises(DomainError, match=r"rounding floor .* eps = [^ ]+ is over [^ ]+ times the gate 1e-10$"):
        solve_filling(GKSignature(g, 1), FillingSpec.parse(slope, 1))
    if warm:
        # the complete structure is a cache hit: no evaluation at all
        assert evals == []
    else:
        # the gate of solve_complete alone: a refused filling builds no
        # table of solved cusp blocks
        assert len(evals) == 1


@pytest.mark.parametrize(
    "g, k, slope, floor",
    [
        (2, 1, "1801439/1", "cusp-row"),
        (2, 1, "1801438/1", None),
        (510, 1, "3/1", "length-row"),
        (509, 1, "3/1", None),
        (518, 64, "3/1", "length-row"),
        (517, 64, "3/1", None),
    ],
)
def test_filling_at_the_edge_of_the_rounding_floors(monkeypatch, g, k, slope, floor):
    # |p| + |q| = 1,801,440 is just above 4 gates / eps = 1,801,439.85, and
    # edge_cosh(beta) eps crosses 1.05 gates between g = 509 and 510 at k = 1
    # (1.0486, 1.0527) and between 517 and 518 at k = 64 (1.0468, 1.0509):
    # each pair pins its floor constant to well within 1 %.  A refused filling
    # takes no Newton step; one just inside is not refused, however its Newton
    # solve ends (1801438/1 lies in the rounding gray zone)
    if floor is not None:
        monkeypatch.setattr(deformation, "_newton", None)
    spec = FillingSpec.parse(",".join([slope] + ["inf"] * (k - 1)), k)
    (x,) = solve_fillings(GKSignature(g, k), [spec])
    if floor is None:
        assert not (isinstance(x, DomainError) and "rounding floor" in str(x)), x
    else:
        assert isinstance(x, DomainError) and floor + " rounding floor" in str(x)


@pytest.mark.parametrize("g, k", [(129, 128), (257, 256), (400, 256)])
def test_filling_every_cusp_beyond_k_64(g, k):
    # k does not limit a filling: every cusp on 2/3, of length sqrt(7)
    sig = GKSignature(g, k)
    x = solve_filling(sig, FillingSpec.from_pairs(k, [(2, 3)] * k))
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    for c in range(k):
        pc, qc = dehn_coefficients(x, c)
        assert abs(pc - 2.0) < 1e-9 and abs(qc - 3.0) < 1e-9, c


@pytest.mark.parametrize(
    "g, slope", [(2, "1234567/1"), (2, "499999/3"), (500, "3/1"), (500, "5/1"), (500, "2/3"), (500, "7/2")]
)
def test_filling_just_inside_the_rounding_floors_solves(g, slope):
    # 1234567/1 is 2.7 fill gates of (|p| + |q|) eps and g = 500 one gate
    # of edge_cosh(beta) eps: both are below the floors that refuse a filling
    sig, spec = GKSignature(g, 1), FillingSpec.parse(slope, 1)
    x = solve_filling(sig, spec)
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    (p, q), (pc, qc) = spec.pairs[0], dehn_coefficients(x, 0)
    assert max(abs(pc - p), abs(qc - q)) <= 1e-10 * max(p, q)


@pytest.mark.parametrize("g", [131, 132])
def test_filling_large_g_spot_checks(monkeypatch, g):
    # 5/1 first failed at g = 132; at g = 131 it took 38 Newton steps, 13
    # block steps from t = 20/sqrt(21), 8 with the first tangent in closed
    # form, 6 with the point at s < 1 corrected only to 1e-3, 4 in one
    # Newton solve from the second-order start, 3 from the fourth-order, and
    # 1 from the table start
    sig = GKSignature(g, 1)
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(1, [(5.0, 1.0)]))
    assert len(calls) <= 6
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    pc, qc = dehn_coefficients(x, 0)
    assert abs(pc - 5.0) < 1e-9 and abs(qc - 1.0) < 1e-9


def test_filling_first_step_failure_is_a_continuation_error(monkeypatch):
    def singular(sig, r, *args):
        return np.full_like(r, np.nan)

    sig, spec = GKSignature(2, 1), FillingSpec.from_pairs(1, [(5.0, 1.0)])
    monkeypatch.setattr(deformation, "_block_step", singular)
    with pytest.raises(ConvergenceError) as info:
        solve_filling(sig, spec)
    assert str(info.value).startswith("g=2 k=1 slopes 5/1: continuation step underflow at t=inf, residual ")
    # every Newton solve stopped at its singular first step, at the
    # fourth-order predictor; the step halves from 1 until it is below
    # 1e-4, so the last one was tried at s = 2^-13
    s = 2.0 ** -13
    cs = solve_complete(sig)
    ((c1, c2, c3, c4),) = deformation._complete_jet(sig, cs, [spec])
    guess = deformation._clip(cs.x0 + s * c1 + s ** 2 * c2 + s ** 3 * c3 + s ** 4 * c4)
    L, S, o = deformation._linear_rows(spec.pairs)
    o[:, 11] *= s
    r, _ = deformation._evaluate(sig, guess[None], (L, S, o))
    assert info.value.residual == float(np.abs(r).max())
    assert str(info.value).endswith(", residual %g" % info.value.residual)


# a batch of one signature is solved together (solve_fillings)

SHORT_SLOPES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.0, -1.0)]


def outcome(value):
    """A solve's result in comparable form: the bytes of a solution, or the
    type, message and residual of an error."""
    if isinstance(value, Exception):
        return type(value), str(value), getattr(value, "residual", "-")
    return value.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    g=st.integers(2, 40),
    n=st.integers(1, 6),
)
def test_solve_fillings_match_solve_filling(seed, k, g, n):
    # each list of a stacked batch gets the bits, or the error, it gets
    # alone, so a list that fails, such as one with a short slope that the
    # sqrt(7) gate refuses, leaves the others untouched
    sig = GKSignature(max(g, k + 1), k)
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        pairs = [None if rng.random() < 0.25 else pq for pq in random_pairs(rng, k, 2.7, 20.0)]
        if rng.random() < 0.3:
            pairs[rng.integers(k)] = SHORT_SLOPES[rng.integers(6)]
        specs.append(FillingSpec.from_pairs(k, pairs))
    stacked = solve_fillings(sig, specs)
    assert len(stacked) == n
    for spec, got in zip(specs, stacked):
        try:
            alone = solve_filling(sig, spec)
        except (ConvergenceError, DomainError) as exc:
            alone = exc
        assert outcome(got) == outcome(alone)
        assert isinstance(got, DomainError) == (not spec.is_hyperbolic())


def test_solve_fillings_errors_per_spec():
    sig = GKSignature(4, 2)
    specs = [
        FillingSpec.from_pairs(2, [(5.0, 1.0), None]),
        FillingSpec.from_pairs(3, [None, None, (5.0, 1.0)]),
        FillingSpec.from_pairs(2, [(1.0, 0.0), (5.0, 1.0)]),
        FillingSpec.unfilled(2),
    ]
    x, wrong_k, short, complete = solve_fillings(sig, specs)
    assert x.tobytes() == solve_filling(sig, specs[0]).tobytes()
    assert isinstance(wrong_k, DomainError) and "3 cusps" in str(wrong_k)
    assert isinstance(short, DomainError) and "sqrt(7)" in str(short)
    assert np.array_equal(complete, solve_complete(sig).x0)
    assert solve_fillings(sig, []) == []


def test_solve_fillings_when_the_complete_structure_fails(monkeypatch):
    # every spec that reaches the solve gets solve_complete's error; the
    # specs refused before it keep their own
    sig = GKSignature(4, 2)
    failure = ConvergenceError("forced failure", 1.0)

    def fail(_sig):
        raise failure

    monkeypatch.setattr(deformation, "solve_complete", fail)
    specs = [
        FillingSpec.from_pairs(2, [(5.0, 1.0), None]),
        FillingSpec.unfilled(2),
        FillingSpec.from_pairs(2, [(1.0, 0.0), None]),
    ]
    filled, complete, short = solve_fillings(sig, specs)
    assert filled is failure and complete is failure
    assert isinstance(short, DomainError) and "sqrt(7)" in str(short)


def stacked_and_alone_block_steps(monkeypatch, g, lists):
    """The block steps of each `_newton` call of `solve_fillings` on the
    lists, and of `solve_filling` on each alone (`newton_block_steps`):
    the solve to the gate, then the one step to the floor for a point
    that met the gate far above its rounding floor."""
    sig = GKSignature(g, len(lists[0]))
    specs = [FillingSpec.from_pairs(sig.k, pairs) for pairs in lists]
    alone = [functools.partial(solve_filling, sig, spec) for spec in specs]
    *alone, stacked = newton_block_steps(monkeypatch, *alone, lambda: solve_fillings(sig, specs))
    return stacked, alone


def slowest_list_alone(alone):
    """The `_newton` block steps a stack of lists makes when it makes the
    steps of the slowest list alone to the gate, and one step to the
    floor where any list alone takes the step to its floor."""
    return [(max(steps[0][0] for steps in alone), int(any(steps[0][1] for steps in alone)))]


@pytest.mark.parametrize(
    "g, lists",
    [
        (5, [[(3, 1), (5, 1), None, (7, 2)], [(7, 2), None, (3, 1), (5, 1)],
             [(5, 1), (7, 3), (8, 1), None], [None, None, (2, 3), None]]),
        (40, [[(3, 1)] * 8, [(1, 3)] * 8, [(5, 1), None] * 4, [(3, 2), (7, 1)] * 4,
              [(8, 3)] * 8, [None] * 7 + [(2, 3)]]),
    ],
)
def test_stacked_batch_block_steps(monkeypatch, g, lists):
    # every list is one step to s = 1, so the stacked Newton solve makes
    # exactly the block steps of the slowest list alone
    calls, alone = stacked_and_alone_block_steps(monkeypatch, g, lists)
    assert calls == slowest_list_alone(alone)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.integers(2, 200),
    k=st.sampled_from([1, 2, 3, 5, 8]),
    n_lists=st.integers(2, 6),
)
def test_stacked_batch_block_steps_random(seed, g, k, n_lists):
    # real slopes of length sqrt(7) to 8, each swapped for an integer slope
    # of the table with probability 1/2, make every list one Newton solve,
    # from the paths in beta of the table and, for a real slope, of the
    # complete block, and the points of a stacked solve ride
    # along with zero steps once they are done, so the stack makes exactly
    # the block steps of the slowest list alone
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(n_lists):
        off = rng.random(k) < 0.3
        off[rng.integers(k)] = False
        table = (rng.random(k) < 0.5).tolist()
        picks = [deformation._TABLE_SLOPES[i] for i in rng.integers(len(deformation._TABLE_SLOPES), size=k)]
        pairs = [pick if t else pq for pq, t, pick in zip(random_pairs(rng, k, math.sqrt(7.0), 8.0), table, picks)]
        lists.append([None if o else pq for pq, o in zip(pairs, off)])
    with pytest.MonkeyPatch.context() as mp:
        calls, alone = stacked_and_alone_block_steps(mp, max(g, k + 1), lists)
    assert calls == slowest_list_alone(alone)


def test_a_filling_short_of_its_floor_takes_the_step_to_it(monkeypatch):
    # 40/1 is not in the table, and from its start, its own fourth-order
    # block moved in beta along the complete block's path, it meets the
    # gate, in a solve with `_POLISH` infinite, which takes no step to the
    # floor, with a length row 197 (g = 3) and 219 (g = 4) times its
    # rounding floor edge_cosh(beta) eps: above _POLISH, and short of the
    # floor, since one Newton step more moves the point by 1.1e-14 and
    # 1.3e-14 and lands it there.  The solve to the gate ends with that
    # step, and that point is the answer
    for pairs in ([(40.0, 1.0), None], [(40.0, 1.0), None, None]):
        sig = GKSignature(len(pairs) + 1, len(pairs))
        spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()
        cs, rows = solve_complete(sig), deformation._linear_rows(spec.pairs)
        assert (40.0, 1.0) not in deformation._cusp_table(sig, cs)[2]
        start = table_start(sig, cs, spec)[None]
        assert deformation._starts(sig, cs, [spec])[0].tobytes() == start.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deformation, "_POLISH", math.inf)
            (gate,) = deformation._newton(sig, start, rows, deformation._FILL_TOL)
        floor = deformation.edge_cosh(float(gate.x[-1])) * deformation._EPS
        assert deformation._POLISH < np.abs(gate.residual[:6]).max() / floor < 256.0
        (y,) = deformation._newton(sig, gate.x[None], rows, None)
        assert np.abs(y.residual[:6]).max() / floor < deformation._POLISH and np.abs(y.x - gate.x).max() > 1e-14
        (z,) = deformation._newton(sig, start, rows, deformation._FILL_TOL)
        assert z.x.tobytes() == y.x.tobytes() and z.residual.tobytes() == y.residual.tobytes()
        assert solve_filling(sig, spec).tobytes() == y.x.tobytes()


@pytest.mark.parametrize("g, pairs", [(2, [(40.0, 1.0)]), (3, [(40.0, 1.0), None])])
def test_the_step_to_the_floor_evaluates_its_point_once(monkeypatch, g, pairs):
    # a filling that takes the step to the floor is evaluated at its start
    # and once after each block step: the step takes its blocks from the
    # last evaluation of the solve to the gate.  Both lists start 40/1 off
    # the table: from the table start none of 680 seeded fill_ladder- and
    # fill_batch-shaped fillings takes the step to the floor
    sig = GKSignature(g, len(pairs))
    spec = FillingSpec.from_pairs(sig.k, pairs)
    # the signature's complete structure and table, built by its first filling
    solve_filling(sig, spec)
    evals, evaluate = [], deformation._evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deformation, "_evaluate", lambda *a: evals.append(1) or evaluate(*a))
        steps = count_block_steps(mp)
        solve_filling(sig, spec)
    assert len(evals) == len(steps) + 1
    (((_, floor),),) = newton_block_steps(monkeypatch, lambda: solve_filling(sig, spec))
    assert floor == 1


# the table of solved cusp blocks (`_cusp_table`) and the start it gives

TABLE_TARGETS = [None] + deformation._TABLE_SLOPES


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (17, 16), (200, 64)])
def test_every_table_entry_meets_the_fill_gate_at_beta_bar(g, k):
    # each entry's path at delta = 0, its block alone at beta_bar, meets
    # the fill gate, and its length rows stand at their rounding floor, not
    # short of it as a Newton point that takes the step to the floor; the
    # path's slope there is -y, y its beta response A^-1 dbeta e, to
    # rounding; the table holds one path per orbit of the plan, and each
    # target maps to its position among the plan's targets; and no caller
    # can write into the table
    sig = GKSignature(g, k)
    cs = solve_complete(sig)
    table, _, positions = deformation._cusp_table(sig, cs)
    assert table.shape == (6, len(deformation._table_plan()[0]), 12)
    assert [positions[t] for t in TABLE_TARGETS] == list(range(len(TABLE_TARGETS)))
    paths = np.array([table_path(sig, cs, t) for t in TABLE_TARGETS])
    B, y = paths[:, 0], -paths[:, 1]
    x = np.concatenate([B, np.full((len(B), 1), cs.beta_bar)], axis=1)
    r, blocks = deformation._evaluate(GKSignature(2, 1), x, deformation._linear_rows(TABLE_TARGETS))
    assert np.abs(r[:, :12]).max() < deformation._FILL_TOL
    assert not deformation._short_of_floor(r[:, :12], [cs.beta_bar] * len(r)).any()
    A, dbeta = blocks()
    e = np.zeros(12)
    e[:6] = dbeta[0]
    assert np.abs(A @ y[:, :, None] - e[:, None]).max() < 1e-9 * dbeta[0]
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    with pytest.raises(TypeError):
        positions[(3, 1)] = 0


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (12, 4), (17, 16), (200, 64)])
def test_each_table_path_meets_its_block_rows_across_its_nodes(g, k):
    # the path of each entry, a quintic in delta = beta - beta_bar, meets
    # its 12 block rows at beta_bar + delta to the fill gate from delta = 0
    # to lo, 1.02 times the first-order beta shift of every cusp on a
    # sqrt(7) slope, and a little beyond: at 6 points between the nodes 0,
    # lo/2 and lo, at lo and at 1.05 lo.  The worst reads 3.7e-11 at g <= 17,
    # and 8.7e-11, 6 times the length rows' rounding floor, at (200, 64)
    sig = GKSignature(g, k)
    cs = solve_complete(sig)
    paths = np.array([table_path(sig, cs, t) for t in TABLE_TARGETS])
    corner, alphas = 6.0 * (g - k), [0, 1, 2, 6, 7, 8]
    sqrt7 = table_path(sig, cs, (3, 1))
    lo = -1.02 * math.fsum([corner * cs.beta_bar, -2.0 * math.pi] + [sqrt7[0][j] for j in alphas] * k) / math.fsum(
        [corner] + [sqrt7[1][j] for j in alphas] * k)
    rows = deformation._linear_rows(TABLE_TARGETS)
    worst = 0.0
    for delta in lo * np.array([0.125, 0.25, 0.375, 0.625, 0.75, 0.875, 1.0, 1.05]):
        B = paths[:, 5]
        for n in range(4, -1, -1):
            B = B * delta + paths[:, n]
        x = np.concatenate([B, np.full((len(B), 1), cs.beta_bar + delta)], axis=1)
        r, _ = deformation._evaluate(GKSignature(2, 1), x, rows)
        worst = max(worst, np.abs(r[:, :12]).max())
    assert worst < 1e-10


def test_a_table_entry_that_misses_the_gate_is_absent(monkeypatch, cold_cache):
    # 3/1's cusp row read 1e-6 off, with a sign that flips from one
    # evaluation to the next, so that no Newton step can null it, whether
    # the build solves 3/1's block or carries it from another slope of its
    # orbit: the entry misses the gate and is left out, and a list with 3/1
    # starts its 3/1 cusp off the table, on its own block moved along the
    # complete block's path, while a list of tabulated slopes takes the
    # table's paths alone
    sig, evaluate, sign = GKSignature(3, 2), deformation._evaluate, [1e-6]

    def shifted(sig, x, rows):
        r, blocks = evaluate(sig, x, rows)
        # the log-sine coefficients of 3u + v on the gammas of tetrahedron 2c
        hit = np.flatnonzero((rows[1][:, 10, 3:6] == (3.0, -2.0, -1.0)).all(axis=1))
        r[0, 12 * hit + 10] += sign[0]
        sign[0] = -sign[0]
        return r, blocks

    monkeypatch.setattr(deformation, "_evaluate", shifted)
    cs = solve_complete(sig)
    table, _, positions = deformation._cusp_table(sig, cs)
    monkeypatch.undo()
    assert set(positions) == set(TABLE_TARGETS) - {(3, 1)}
    assert table.shape == (6, len(deformation._table_plan()[0]), 12)
    dropped, kept = (FillingSpec.from_pairs(2, pairs).canonicalized() for pairs in ([(3, 1), (5, 1)], [(5, 1), None]))
    starts, _ = deformation._starts(sig, cs, [dropped, kept])
    assert starts[0].tobytes() == table_start(sig, cs, dropped).tobytes()
    assert starts[1].tobytes() == table_start(sig, cs, kept).tobytes()
    assert np.abs(residuals(sig, solve_filling(sig, dropped))).max() < deformation._FILL_TOL


def test_the_table_block_maps_are_those_of_the_torus_isometries():
    # r and s on one cusp block are `phi_r` and `phi_s` on a point
    assert deformation._ROTATE.tolist() == cx._block_map(D6Element(1, False)).tolist()
    assert deformation._REFLECT.tolist() == cx._block_map(D6Element(0, True)).tolist()


def test_a_singular_block_at_a_node_drops_only_its_orbit(monkeypatch, cold_cache):
    # the block of 5/1's orbit made singular in the stacked solve at the two
    # nodes other than beta_bar, at lo: that orbit's entries are left out,
    # every other path has the bits it has when no block is singular, and a
    # list with 5/1 starts that cusp off the table.  The build completes,
    # though the orbit's path holds NaN, which has no exact alpha sum: every
    # other orbit keeps its sums, and every list of the kept targets its
    # start bits
    sig = GKSignature(3, 2)
    clean = solve_complete(sig)
    clean_table, clean_sums, _ = deformation._cusp_table(sig, clean)
    solve_complete.cache_clear()
    solved, _, source, _, _ = deformation._table_plan()
    orbit, evaluate = source[TABLE_TARGETS.index((5, 1))], deformation._evaluate

    def singular(sig, x, rows):
        r, blocks = evaluate(sig, x, rows)
        if len(x) != 2:
            return r, blocks

        def zeroed():
            A, dbeta = blocks()
            A[len(solved) + orbit] = 0.0
            return A, dbeta

        return r, zeroed

    monkeypatch.setattr(deformation, "_evaluate", singular)
    cs = solve_complete(sig)
    table, sums, positions = deformation._cusp_table(sig, cs)
    monkeypatch.undo()
    lost = {t for t, s in zip(TABLE_TARGETS, source.tolist()) if s == orbit}
    assert (5, 1) in lost and set(positions) == set(TABLE_TARGETS) - lost
    kept = np.arange(len(solved)) != orbit
    assert table[:, kept].tobytes() == clean_table[:, kept].tobytes()
    nan = np.isnan(table[:, orbit]).any(axis=1)
    assert nan.any() and not sums[:, orbit][nan].any()
    assert sums[:, kept].tobytes() == clean_sums[:, kept].tobytes()
    specs = [FillingSpec.from_pairs(2, [t, (3, 1)]).canonicalized() for t in TABLE_TARGETS if t not in lost]
    assert deformation._starts(sig, cs, specs)[0].tobytes() == deformation._starts(sig, clean, specs)[0].tobytes()
    spec = FillingSpec.from_pairs(2, [(5, 1), None]).canonicalized()
    assert deformation._starts(sig, cs, [spec])[0][0].tobytes() == table_start(sig, cs, spec).tobytes()
    assert np.abs(residuals(sig, solve_filling(sig, spec))).max() < deformation._FILL_TOL


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sig=st.sampled_from([GKSignature(2, 1), GKSignature(17, 16), GKSignature(200, 64)]),
       n=st.integers(1, 64))
def test_tabulated_lists_gather_their_angle_sums_and_rows_bit_for_bit(data, sig, n):
    # the total angle's coefficients of any n <= 64 tabulated paths, from
    # their orbits' exact alpha sums, are the fsums of their 6n alpha terms;
    # a batch of tabulated lists, here beside lists that hold every one of
    # the plan's 115 targets, gathers the rows that `_linear_rows` gives; and
    # a list with one target beyond the table takes `table_start`, its own
    # rows written into the gathered ones, while each tabulated list keeps
    # its start bits.  Each orbit's sums take 2 doubles, not 6
    cs, k = solve_complete(sig), sig.k
    solved, _, source, flat, _ = deformation._table_plan()
    table, sums, _ = deformation._cusp_table(sig, cs)
    assert sums.shape == (6, len(solved), 2)
    target = st.integers(0, len(TABLE_TARGETS) - 1)
    picks = data.draw(st.lists(target, min_size=n, max_size=n))
    corner = 6.0 * (sig.g - k)
    (got,) = deformation._total_angle(cs, sums, corner, source[picks][None], [[]])
    alphas = table.reshape(6, -1)[:, flat[picks]][:, :, deformation._ALPHA_COLS].reshape(6, -1).tolist()
    want = [math.fsum([corner * cs.beta_bar, -2.0 * math.pi] + alphas[0]), math.fsum([corner] + alphas[1])]
    want += [math.fsum(terms) for terms in alphas[2:]]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    every = TABLE_TARGETS + [None] * (-len(TABLE_TARGETS) % k)
    lists = [every[i:i + k] for i in range(0, len(every), k)]
    lists.append([TABLE_TARGETS[i] for i in data.draw(st.lists(target, min_size=k, max_size=k))])
    specs = [FillingSpec.from_pairs(k, pairs).canonicalized() for pairs in lists]
    starts, rows = deformation._starts(sig, cs, specs)
    linear = deformation._linear_rows([pq for spec in specs for pq in spec.pairs])
    assert [a.tobytes() for a in rows] == [a.tobytes() for a in linear]
    far = list(lists[-1])
    far[data.draw(st.integers(0, k - 1))] = (40, 1)
    specs.append(FillingSpec.from_pairs(k, far).canonicalized())
    mixed, rows = deformation._starts(sig, cs, specs)
    linear = deformation._linear_rows([pq for spec in specs for pq in spec.pairs])
    assert [a.tobytes() for a in rows] == [a.tobytes() for a in linear]
    assert mixed[:-1].tobytes() == starts.tobytes() and mixed[-1].tobytes() == table_start(sig, cs, specs[-1]).tobytes()


# every primitive sign-form slope of squared length 7-49, the benchmark's
SHORT_SLOPES = [(p, q) for p, q in deformation._TABLE_SLOPES if p * p - p * q + q * q <= 49]


def tabulated_lists(rng):
    """Seeded lists of tabulated targets, as (g, k, pairs): one
    fill_ladder-shaped list at each of k = 2, 8 and 16 (g = k + 1, the first
    cusp on a sqrt(7) slope, the others on `SHORT_SLOPES`), and four
    fill_batch-shaped ones (k <= 4, g <= 12, each cusp unfilled with
    probability 1/3, at least one filled)."""
    lists = []
    for k in (2, 8, 16):
        pairs = [SQRT7_SLOPES[rng.integers(6)]] + [SHORT_SLOPES[i] for i in rng.integers(len(SHORT_SLOPES), size=k - 1)]
        lists.append((k + 1, k, pairs))
    while len(lists) < 7:
        k = int(rng.integers(1, 5))
        g = int(rng.integers(k + 1, 13))
        pairs = [None if rng.random() < 1 / 3 else SHORT_SLOPES[rng.integers(len(SHORT_SLOPES))] for _ in range(k)]
        if all(pq is None for pq in pairs):
            pairs[rng.integers(k)] = SHORT_SLOPES[rng.integers(len(SHORT_SLOPES))]
        # (10, 3) is refused by the complete structure's gate
        if (g, k) != (10, 3):
            lists.append((g, k, pairs))
    return lists


@pytest.mark.parametrize("seed", range(10))
def test_the_table_start_is_one_block_step_from_the_gate(seed):
    # the table start is the paths' point where the total angle closes: it
    # meets its filling's rows to 1e-9 (at most 2.1e-11 on these lists), and
    # one block-arrow step from it meets the fill gate
    for g, k, pairs in tabulated_lists(np.random.default_rng(4900 + seed)):
        sig = GKSignature(g, k)
        cs = solve_complete(sig)
        spec = FillingSpec.from_pairs(k, pairs).canonicalized()
        rows = deformation._linear_rows(spec.pairs)
        start, _ = deformation._starts(sig, cs, [spec])
        assert start[0].tobytes() == table_start(sig, cs, spec).tobytes()
        r, blocks = deformation._evaluate(sig, start, rows)
        assert np.abs(r).max() <= 1e-9, (g, k, pairs)
        step = deformation._block_step(sig, r, *blocks())
        r, _ = deformation._evaluate(sig, start - step, rows)
        assert np.abs(r).max() < deformation._FILL_TOL, (g, k, pairs)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 16, 64])
def test_the_table_start_and_the_jet_start_agree(seed, k):
    # on a tabulated list, slopes and inf mixed, the table start and the
    # fourth-order start both meet the 1e-10 gate at s = 1 and agree to the
    # rounding floor
    rng = np.random.default_rng(4700 + 10 * seed + k)
    sig = GKSignature(int(rng.integers(k + 1, 201)), k)
    cs = solve_complete(sig)
    pairs = [None if rng.random() < 0.3 else pq for pq in
             (deformation._TABLE_SLOPES[i] for i in rng.integers(len(deformation._TABLE_SLOPES), size=k))]
    pairs[rng.integers(k)] = deformation._TABLE_SLOPES[rng.integers(len(deformation._TABLE_SLOPES))]
    spec = FillingSpec.from_pairs(k, pairs).canonicalized()
    rows = deformation._linear_rows(spec.pairs)
    jet_start = deformation._predict(cs.x0, deformation._complete_jet(sig, cs, [spec]), 0.0, 1.0)
    table, jet = deformation._newton(
        sig,
        np.concatenate([deformation._starts(sig, cs, [spec])[0], jet_start]),
        [np.concatenate([a, a]) for a in rows],
        deformation._FILL_TOL,
    )
    assert not isinstance(table.x, Exception) and not isinstance(jet.x, Exception)
    assert max(np.abs(table.residual).max(), np.abs(jet.residual).max()) < deformation._FILL_TOL
    assert np.abs(table.x - jet.x).max() < 1e-13
    assert table.x.tobytes() == solve_filling(sig, spec).tobytes()


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (17, 16), (200, 64)])
def test_each_tabulated_slope_alone_takes_one_block_solve(monkeypatch, g, k):
    # from the table start, one filled cusp meets the gate in one block
    # solve (in two from the table's first block-arrow step), and then
    # takes no step to the floor
    sig = GKSignature(g, k)
    specs = [FillingSpec.from_pairs(k, [pq] + [None] * (k - 1)) for pq in deformation._TABLE_SLOPES]
    for spec, x in zip(specs, solve_fillings(sig, specs)):
        assert np.abs(residuals(sig, x)).max() < deformation._FILL_TOL, spec
    alone = [functools.partial(solve_filling, sig, spec) for spec in specs]
    stacked, *alone = newton_block_steps(monkeypatch, lambda: solve_fillings(sig, specs), *alone)
    # one stacked solve to the gate and the stacked step to the floor
    for spec, calls in zip([None] + specs, [stacked] + alone):
        ((gate, floor),) = calls
        assert (gate, floor) == (1, 0), spec


def test_a_list_with_a_slope_beyond_the_table_starts_on_the_paths_in_beta():
    # one untabulated slope, here 40/1 beside tabulated ones or a real slope
    # just off 3/1, starts on its own fourth-order block with beta held,
    # moved along the complete block's path, and every other cusp on its
    # tabulated path: the list starts at `table_start`, and the filling is
    # the one Newton solve from it, bit for bit
    sig = GKSignature(3, 2)
    cs = solve_complete(sig)
    for pairs in ([(40, 1), (3, 1)], [(40, 1), None], [(3.0, 1.0 + 1e-12), (5, 1)]):
        spec = FillingSpec.from_pairs(2, pairs).canonicalized()
        start = table_start(sig, cs, spec)[None]
        assert deformation._starts(sig, cs, [spec])[0].tobytes() == start.tobytes()
        (rec,) = deformation._newton(sig, start, deformation._linear_rows(spec.pairs), deformation._FILL_TOL)
        assert solve_filling(sig, spec).tobytes() == rec.x.tobytes()


# the primitive sign-form slopes of squared length 104 to 300, beyond the table's cut
FAR_SLOPES = [(p, q) for p in range(21) for q in range(-20, 21)
              if (p > 0 or q == 1) and math.gcd(p, q) == 1 and 104 <= p * p - p * q + q * q <= 300]


@pytest.mark.parametrize("g, k", [(9, 8), (17, 16), (200, 64)])
def test_a_list_with_one_slope_beyond_the_table_takes_three_block_solves(monkeypatch, g, k):
    # cusp 1 beyond the table and the others tabulated or unfilled: from
    # the fourth-order start of every cusp such a list took 4 (k = 8, 16)
    # and 5 (k = 64) block solves; with its tabulated cusps on their paths
    # in beta it takes 3, the step to the floor included
    sig, rng = GKSignature(g, k), np.random.default_rng(5200 + k)
    rest = [None, (3, 1), (5, 1), (2, 3), (7, 2)]
    steps = count_block_steps(monkeypatch)
    for _ in range(10):
        pairs = [FAR_SLOPES[rng.integers(len(FAR_SLOPES))]] + [rest[i] for i in rng.integers(len(rest), size=k - 1)]
        steps.clear()
        x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
        assert len(steps) == 3, pairs
        assert np.abs(residuals(sig, x)).max() < deformation._FILL_TOL


def mixed_lists(draw, k, n):
    """n lists of k targets, each a target of the table or a slope off it,
    |p|, |q| <= 3e5 of either sign and squared length 104 or more, with at
    least one cusp filled."""
    far = st.tuples(st.integers(-300000, 300000), st.integers(-300000, 300000)).filter(
        lambda pq: pq[0] * pq[0] - pq[0] * pq[1] + pq[1] * pq[1] >= 104)
    target = st.sampled_from(TABLE_TARGETS) | far
    lists = draw(st.lists(st.lists(target, min_size=k, max_size=k), min_size=n, max_size=n))
    return [pairs if any(pairs) else [(40, 1)] + pairs[1:] for pairs in lists]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), sig=st.sampled_from([GKSignature(2, 1), GKSignature(3, 2), GKSignature(17, 16),
                                            GKSignature(200, 64)]), n=st.integers(1, 3))
def test_lists_off_the_table_start_on_the_paths_in_beta(data, sig, n):
    # lists that mix tabulated targets and slopes off the table: each list
    # of a batch starts at `table_start`, is solved to the bits it gets
    # alone, and lies within 1e-9 of the warm-start continuation, solved
    # to the 4 gates that a cusp row's rounding floor may reach: at k = 64
    # a few such rows keep the sup-norm of its first point at 1.06e-10
    cs, k = solve_complete(sig), sig.k
    specs = [FillingSpec.from_pairs(k, pairs).canonicalized() for pairs in mixed_lists(data.draw, k, n)]
    starts, _ = deformation._starts(sig, cs, specs)
    for start, spec in zip(starts, specs):
        assert start.tobytes() == table_start(sig, cs, spec).tobytes(), spec.pairs
    batch = solve_fillings(sig, specs)
    for x, spec in zip(batch, specs):
        assert x.tobytes() == solve_filling(sig, spec).tobytes(), spec.pairs
        oracle = warm_start_continuation(sig, spec.pairs, tol=deformation._CUSP_FLOOR * deformation._FILL_TOL)
        assert np.abs(x - oracle).max() < 1e-9, spec.pairs


def test_failed_stacked_step_runs_the_path_alone(monkeypatch):
    # admissible lists are one stacked Newton solve; a list whose stacked
    # step fails continues alone from s = 0 with its step halved, and gets
    # the bits it gets alone under the same failure, the others theirs
    sig = GKSignature(9, 3)
    lists = [[(7.0, 2.0), (8.0, 3.0), None], [(3.0, 1.0), (7.0, 2.0), None], [None, (2.0, 3.0), (7.0, 1.0)]]
    specs = [FillingSpec.from_pairs(3, pairs) for pairs in lists]
    unforced = [solve_filling(sig, spec).tobytes() for spec in specs]
    with pytest.MonkeyPatch.context() as mp:
        fail_first_newton(mp)
        forced = solve_filling(sig, specs[1]).tobytes()
    calls, newton = [], deformation._newton
    monkeypatch.setattr(deformation, "_newton", lambda *a: calls.append(1) or newton(*a))
    assert [x.tobytes() for x in solve_fillings(sig, specs)] == unforced
    assert len(calls) == 1
    calls.clear()
    fail_first_newton(monkeypatch, only=1)
    assert [x.tobytes() for x in solve_fillings(sig, specs)] == [unforced[0], forced, unforced[2]]
    # the stacked solve, then list 1's points at s = 1/2 and s = 1
    assert len(calls) == 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4))
def test_block_step_fails_only_the_singular_points(data, n, k):
    # numpy fails a whole stacked solve for one singular block: a point
    # whose system is singular, by a zeroed block or a zero Schur scalar,
    # gets a step of NaN, and every other point the bytes of its step
    # alone.  At (2k, k) the corner 6(g-k) is 6k, so blocks A = I and
    # dbeta = 2 make it minus the alphas' beta response exactly 0
    sig = GKSignature(2 * k, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = np.array([near_complete(sig, rng) for _ in range(n)])
    targets = [pq for _ in range(n) for pq in mixed_targets(rng, k)]
    r, blocks = deformation._evaluate(sig, x, deformation._linear_rows(targets))
    A, dbeta = blocks()
    singular = set()
    schur = data.draw(st.none() | st.integers(0, n - 1))
    if schur is not None:
        A[k * schur:k * schur + k], dbeta[schur] = np.eye(12), 2.0
        singular.add(schur)
    zeroed = data.draw(st.sets(st.integers(0, n * k - 1), min_size=1))
    A[sorted(zeroed)] = 0.0
    singular |= {b // k for b in zeroed}
    step = deformation._block_step(sig, r, A, dbeta)
    assert [i for i in range(n) if not np.isfinite(step[i]).all()] == sorted(singular)
    for i in range(n):
        alone = deformation._block_step(sig, r[i:i + 1], A[k * i:k * i + k], dbeta[i:i + 1])
        if i in singular:
            assert np.isnan(step[i]).all() and np.isnan(alone).all()
        else:
            assert step[i].tobytes() == alone[0].tobytes()


def test_a_singular_jacobian_fails_only_its_point_of_newton(monkeypatch):
    # one block of the middle point zeroed at the first evaluation of a
    # stacked Newton solve: that point alone fails, with the singular
    # Jacobian's error and its start's norm, and the others keep the bytes
    # they get alone
    sig = GKSignature(5, 3)
    cs, k = solve_complete(sig), sig.k
    specs = [FillingSpec.from_pairs(k, pairs).canonicalized()
             for pairs in ([(7, 2), (3, 1), None], [(5, 1), None, (8, 3)], [(7, 1), (7, 2), (8, 3)])]
    starts, rows = deformation._starts(sig, cs, specs)
    alone = [deformation._newton(sig, starts[i:i + 1], [a[k * i:k * i + k] for a in rows], deformation._FILL_TOL)
             for i in range(3)]
    evaluate, calls = deformation._evaluate, []

    def singular(sig, x, rows):
        r, blocks = evaluate(sig, x, rows)
        calls.append(len(x))
        if len(calls) > 1:
            return r, blocks

        def zeroed():
            A, dbeta = blocks()
            A[k + 1] = 0.0
            return A, dbeta

        return r, zeroed

    monkeypatch.setattr(deformation, "_evaluate", singular)
    records = deformation._newton(sig, starts, rows, deformation._FILL_TOL)
    monkeypatch.undo()
    r0, _ = evaluate(sig, deformation._clip(starts), rows)
    exc = records[1].x
    assert isinstance(exc, ConvergenceError) and str(exc) == "singular Jacobian: Singular matrix"
    assert exc.residual == float(np.abs(r0[1]).max())
    # a failed point's record holds its error and no point
    assert records[1].residual is None
    for i in (0, 2):
        (own,) = alone[i]
        assert not isinstance(records[i].x, Exception) and not isinstance(own.x, Exception)
        assert records[i].x.tobytes() == own.x.tobytes() and records[i].residual.tobytes() == own.residual.tobytes()


def test_a_start_that_is_not_a_number_fails_only_its_list(monkeypatch):
    # a NaN in the middle list's start: the stacked Newton solve refuses
    # that point, its path hands the record on as it is, and the other
    # lists keep the bytes they get alone
    sig = GKSignature(5, 3)
    specs = [FillingSpec.from_pairs(3, pairs)
             for pairs in ([(7, 2), (3, 1), None], [(5, 1), None, (8, 3)], [(7, 1), (7, 2), (8, 3)])]
    alone = [solve_filling(sig, spec).tobytes() for spec in specs]
    starts = deformation._starts

    def nan_middle(sig, cs, specs):
        x, rows = starts(sig, cs, specs)
        x[1, 3] = math.nan
        return x, rows

    monkeypatch.setattr(deformation, "_starts", nan_middle)
    records = []
    xs = solve_fillings(sig, specs, out=records)
    assert isinstance(xs[1], DomainError) and str(xs[1]) == "coordinates must lie in (0, pi)"
    assert records[1].x is xs[1] and records[1].residual is None
    assert [xs[0].tobytes(), xs[2].tobytes()] == [alone[0], alone[2]]


def test_correction_raises_where_a_block_is_singular(monkeypatch):
    # abc_error reads a LinAlgError as a correction that is undefined
    sig = GKSignature(5, 3)
    x = solve_filling(sig, FillingSpec.from_pairs(3, [(7, 2), None, (8, 3)]))
    assert np.isfinite(deformation.correction(sig, x)).all()
    evaluate = deformation._evaluate

    def singular(sig, x, rows):
        r, blocks = evaluate(sig, x, rows)

        def zeroed():
            A, dbeta = blocks()
            A[2] = 0.0
            return A, dbeta

        return r, zeroed

    monkeypatch.setattr(deformation, "_evaluate", singular)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        deformation.correction(sig, x)


def test_newton_refuses_only_the_point_that_is_not_a_number():
    # check_coords' error, for that point alone; the other point converges
    sig = GKSignature(4, 2)
    x0 = np.array([solve_complete(sig).x0] * 2)
    x0[1, 3] = np.nan
    rows = deformation._linear_rows([(30.0, 10.0), None] * 2)
    solved, nan = deformation._newton(sig, x0, rows, 1e-10)
    assert not isinstance(solved.x, Exception) and np.max(np.abs(residuals(sig, solved.x))) < 1e-10
    assert isinstance(nan.x, DomainError) and "(0, pi)" in str(nan.x)
    (alone,) = deformation._newton(sig, x0[:1], deformation._linear_rows([(30.0, 10.0), None]), 1e-10)
    assert solved.x.tobytes() == alone.x.tobytes()


# a solved point of (3, 2) with 5/1 on cusp 0, written out so that the stall
# test does not depend on the start the solver takes to it
STALL_POINT = np.array([float.fromhex(h) for h in (
    "0x1.f5b29ec6c7a39p-3", "0x1.d5f7e324af16bp-3", "0x1.1979db2023dafp-1",
    "0x1.8457c5e911eeep-1", "0x1.2d18c81aa9aebp-1", "0x1.cb872386a7d44p+0",
    "0x1.57da478286a28p-2", "0x1.aef78766da696p-2", "0x1.e07e614138dfdp-3",
    "0x1.34fa87dae927dp+0", "0x1.7c66d78ba3beap+0", "0x1.cb782c87e2f22p-2",
    # the unfilled cusp's block: alpha, then gamma, on both tetrahedra
    *(["0x1.544b031411d8bp-2"] * 3 + ["0x1.0c152382d7365p+0"] * 3) * 2,
    "0x1.840fe1d74ae8dp-2",
)])


def test_newton_stalls_once_its_step_stops_moving_the_point(monkeypatch):
    # at a tolerance below the residual's rounding floor the full step of a
    # solved point comes to leave every bit of it as it was, and each later
    # step would be the same: the solve ends there, not after 25 iterations
    sig, pairs, x = GKSignature(3, 2), [(5.0, 1.0), None], STALL_POINT
    evals, evaluate = [], deformation._evaluate
    monkeypatch.setattr(deformation, "_evaluate", lambda *a: evals.append(a[1].copy()) or evaluate(*a))
    rows = deformation._linear_rows(pairs)
    (rec,) = deformation._newton(sig, x[None], rows, 1e-20)
    # the record of a failed point holds no point: the stall is where Newton last evaluated
    exc, y = rec.x, evals[-1][0]
    r, _ = evaluate(sig, y[None], rows)
    assert str(exc) == "Newton stalled at residual %g" % exc.residual
    assert exc.residual == float(np.abs(r).max())
    # the start and 10 steps; the same call at (2, 1) with 3/1 and at
    # (17, 16) never stalls and ends in "no convergence" after 25
    assert len(evals) == 11


def test_a_start_that_meets_tol_takes_one_step_and_has_converged(monkeypatch):
    # the point where Newton stalls at tol 1e-20, whose full step leaves
    # every bit of it as it was: from there, with tol 1e-10, which it
    # meets, Newton still takes one block step, and the point has
    # converged, with no stall error; with tol 1e-20 the same one step is
    # the stall
    sig, rows = GKSignature(3, 2), deformation._linear_rows([(5.0, 1.0), None])
    evals, evaluate = [], deformation._evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deformation, "_evaluate", lambda *a: evals.append(a[1].copy()) or evaluate(*a))
        (stall,) = deformation._newton(sig, STALL_POINT[None], rows, 1e-20)
    # the record of a failed point holds no point: the stall is where Newton last evaluated
    fixed = evals[-1][0]
    assert str(stall.x).startswith("Newton stalled")
    steps = count_block_steps(monkeypatch)
    (rec,) = deformation._newton(sig, fixed[None], rows, 1e-10)
    assert rec.residual is not None and len(steps) == 1 and rec.x.tobytes() == fixed.tobytes()
    steps.clear()
    (rec,) = deformation._newton(sig, fixed[None], rows, 1e-20)
    assert str(rec.x).startswith("Newton stalled") and len(steps) == 1


def count_block_steps(mp):
    """The list that gets one entry per `_block_step` call under `mp`."""
    calls, step = [], deformation._block_step
    mp.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    return calls


def newton_block_steps(mp, *solves):
    """Per call of each of `solves`, under the patches of `mp`, the list of
    its `_newton` calls, each as the pair of its block steps to the gate
    and its block steps to the rounding floor: the first counted in a run
    of the call with `_POLISH` infinite, where no step to the floor fires,
    the second the rest.  Each call runs with `_POLISH` as it is first, so
    that the signature's table is built as it always is."""
    steps, newton = count_block_steps(mp), deformation._newton
    per_call = []

    def counted(*args):
        before = len(steps)
        out = newton(*args)
        per_call.append(len(steps) - before)
        return out

    def run(solve):
        per_call.clear()
        solve()
        return list(per_call)

    mp.setattr(deformation, "_newton", counted)
    out = []
    for solve in solves:
        total = run(solve)
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(deformation, "_POLISH", math.inf)
            gate = run(solve)
        assert len(total) == len(gate)
        out.append([(g, t - g) for t, g in zip(total, gate)])
    return out


def path_alone(sig, spec, mp):
    """What `_path` gives `spec` alone from s = 0, under the
    patches of `mp`: its solution or error, its final residual and the
    count of its block solves."""
    calls = count_block_steps(mp)
    cs, spec = solve_complete(sig), spec.canonicalized()
    rows = deformation._linear_rows(spec.pairs)
    (first,) = deformation._newton(sig, deformation._starts(sig, cs, [spec])[0], rows, deformation._FILL_TOL)
    rec = deformation._path(sig, cs, spec, rows, first)
    return outcome(rec.x), None if rec.residual is None else rec.residual.tobytes(), len(calls)


@pytest.mark.parametrize(
    "g, pairs",
    [
        (2, [(5.0, 1.0)]),
        (3, [(3.0, 1.0), None]),
        (17, [SQRT7_SLOPES[c % 6] for c in range(16)]),
        # in the length rows' rounding gray zone: the path fails on its own
        (443, [(3.0, 1.0)] + [None] * 63),
    ],
)
def test_the_stacked_step_is_the_first_step_of_the_path(g, pairs):
    # one route per filling: a spec whose stacked step fails goes on as its
    # `_path` from s = 0, whose first step failed the same
    # way; it gets that path's bits or error, final residual and block
    # solves, alone or beside lists whose stacked steps succeed
    sig = GKSignature(g, len(pairs))
    spec = FillingSpec.from_pairs(sig.k, pairs)
    with pytest.MonkeyPatch.context() as mp:
        fail_first_newton(mp)
        want = path_alone(sig, spec, mp)
    with pytest.MonkeyPatch.context() as mp:
        fail_first_newton(mp)
        calls = count_block_steps(mp)
        records = []
        solve_fillings(sig, [spec], out=records)
    residual = None if records[0].residual is None else records[0].residual.tobytes()
    assert (outcome(records[0].x), residual, len(calls)) == want
    other = FillingSpec.from_pairs(sig.k, [(5.0, 1.0)] + [None] * (sig.k - 1))
    with pytest.MonkeyPatch.context() as mp:
        fail_first_newton(mp, only=1)
        records = []
        xs = solve_fillings(sig, [other, spec, other], out=records)
    residual = None if records[1].residual is None else records[1].residual.tobytes()
    assert (outcome(xs[1]), residual) == want[:2]
    assert outcome(xs[0]) == outcome(xs[2]) == outcome(solve_filling(sig, other))
    if g == 443:
        assert isinstance(xs[1], ConvergenceError)


@pytest.mark.parametrize("g", [150, 200])
@pytest.mark.parametrize("pairs", [[(3.0, 1.0)], [(5.0, 1.0)], [(7.0, 2.0), None], [(2.0, 3.0), (40.0, 1.0)]])
def test_an_answer_stops_on_the_sup_norm_alone(monkeypatch, g, pairs):
    # at g = 150 and 200 a length row has scale edge_cosh(beta), 4.1e4 and
    # 7.3e4, and an answer is still solved on the plain sup-norm: Newton
    # returns no error exactly when max |r| < tol, after any number of
    # iterations
    sig = GKSignature(g, len(pairs))
    cs = solve_complete(sig)
    spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()
    ((c1, c2, c3, c4),) = deformation._complete_jet(sig, cs, [spec])
    rows = deformation._linear_rows(spec.pairs)
    seen = set()
    for iterations in range(1, 8):
        monkeypatch.setattr(deformation, "_MAX_ITER", iterations)
        for tol in (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15):
            (rec,) = deformation._newton(sig, (cs.x0 + c1 + c2 + c3 + c4)[None], rows, tol)
            # a failed point's error carries the sup-norm of its last evaluation
            norm = rec.x.residual if rec.residual is None else float(np.abs(rec.residual).max())
            solved = norm < tol
            assert (rec.residual is not None) == solved, (iterations, tol, rec.x)
            seen.add(solved)
    # answers and failures
    assert seen == {True, False}


def test_solve_fillings_pass_an_error_entry_through(monkeypatch):
    # an entry that is an error, such as a list that did not parse, is its
    # own result and record, and the other specs solve as they do alone
    sig = GKSignature(3, 2)
    err = DomainError("expected 2 comma-separated entries, got 1")
    spec = FillingSpec.from_pairs(2, [(5.0, 1.0), None])
    records = []
    xs = solve_fillings(sig, [err, spec, err], out=records)
    assert xs[0] is err and xs[2] is err and [rec.x for rec in records] == xs
    assert records[0].residual is None and records[2].residual is None
    assert xs[1].tobytes() == solve_filling(sig, spec).tobytes()
    # errors alone solve nothing, not even the complete structure
    monkeypatch.setattr(deformation, "solve_complete", None)
    assert solve_fillings(sig, [err]) == [err]
