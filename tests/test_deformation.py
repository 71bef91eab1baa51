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
from mgk import deformation
from mgk.hyptrig import DomainError, FillingSpec

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
    assert GKSignature(3, 2).n_residuals == 21


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
    for a in (cs.x0, cs.curvature, cs.residual):
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


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (9, 3), (17, 16)])
def test_fills_are_the_same_with_a_cold_and_a_warm_cache(cold_cache, g, k):
    # solution and residual record byte for byte, alone and stacked
    rng = np.random.default_rng(3900 + k)
    sig = GKSignature(g, k)
    specs = [FillingSpec.from_pairs(k, random_pairs(rng, k, 2.7, 40.0)) for _ in range(3)]
    specs.append(FillingSpec.from_pairs(k, [(3.0, 1.0)] + [None] * (k - 1)))

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
    # s = sqrt(7)/5 corrected only to a merit of 1e-3, 7, and it takes 5-6 in one
    # Newton solve from the second-order start at the complete structure
    sig = GKSignature(k + 1, k)
    pairs = [SQRT7_SLOPES[c % 6] for c in range(k)]
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(k, pairs))
    assert len(calls) <= 8
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
    # second-order start it is one Newton solve of 5
    sig = GKSignature(k + 1, k)
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(k, [(3.0, 1.0)] + [None] * (k - 1)))
    assert len(calls) <= 7
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    pc, qc = dehn_coefficients(x, 0)
    assert abs(pc - 3.0) < 1e-9 and abs(qc - 1.0) < 1e-9


def fail_first_newton(mp, only=None):
    """Make the next `_newton` call report each of its points, or only the
    one at position `only`, as failed, as if the continuation's first step
    were too long: a path that reaches s = 1 in one step then halves it,
    and solves a point at s = 1/2 first."""
    newton, calls = deformation._newton, []

    def once(*args):
        x, r, errors = newton(*args)
        if not calls:
            calls.append(1)
            errors = [
                ConvergenceError("forced failure", 1.0) if only in (None, i) else exc
                for i, exc in enumerate(errors)
            ]
        return x, r, errors

    mp.setattr(deformation, "_newton", once)


@pytest.mark.parametrize(
    "g, pairs", [(3, [(5.0, 1.0), None]), (17, [SQRT7_SLOPES[c % 6] for c in range(16)])]
)
def test_path_predicts_with_the_jet_and_corrects_with_one_step(monkeypatch, g, pairs):
    # after a first step made to fail, the path solves s = 1/2 and then
    # s = 1, each from the last solved point plus the change of the jet's
    # Taylor polynomial; the point at s = 1/2 is one Newton step
    sig = GKSignature(g, len(pairs))
    spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()
    cs = solve_complete(sig)
    ((dx, ddx),) = deformation._complete_jet(sig, cs, [spec])
    fail_first_newton(monkeypatch)
    steps, newton, seen = count_block_steps(monkeypatch), deformation._newton, []

    def spy(sig, x0, rows, tol):
        before = len(steps)
        x, r, errors = newton(sig, x0, rows, tol)
        seen.append((x0[0].copy(), tol, len(steps) - before, x[0].copy()))
        return x, r, errors

    monkeypatch.setattr(deformation, "_newton", spy)
    x = solve_filling(sig, spec)
    first, (half, tol_half, steps_half, x_half), (one, tol_one, _, x_one) = seen
    assert first[0].tobytes() == (cs.x0 + dx + 0.5 * ddx).tobytes()
    assert half.tobytes() == (cs.x0 + 0.5 * dx + 0.125 * ddx).tobytes()
    assert tol_half is None and steps_half == 1
    assert one.tobytes() == (x_half + 0.5 * dx + 0.375 * ddx).tobytes()
    assert tol_one == deformation._FILL_TOL and x_one.tobytes() == x.tobytes()


def tangent_errors(monkeypatch, g, k, tight):
    """The directions x' + s x'' that the path's predictor takes from each
    solved point short of s = 1 of a sqrt(7) path whose first step is made
    to fail, the derivative of the jet's Taylor polynomial at s, against
    the central difference of solves at s +- h from that point: per point,
    s and the error relative to the central difference.  With `tight` the
    point at s = 1/2 is solved to _FILL_TOL instead of corrected by one
    Newton step."""
    sig = GKSignature(g, k)
    pairs = [(3.0, 1.0)] + [None] * (k - 1)
    cs = solve_complete(sig)
    ((dx, ddx),) = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs).canonicalized()])
    newton, solved = deformation._newton, []

    def spy(sig, x0, rows, tol):
        if tight and tol is None:
            tol = deformation._FILL_TOL
        x, r, errors = newton(sig, x0, rows, tol)
        solved.append((tol, x[0].copy()))
        return x, r, errors

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
            end, _, (exc,) = deformation._newton(sig, x[None], (L, S, o), 1e-12)
            assert exc is None, (s, sh)
            ends.append(end[0])
        fd = (ends[0] - ends[1]) / (2.0 * h)
        errors.append((s, np.max(np.abs(dx + s * ddx - fd)) / np.max(np.abs(fd))))
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
    # direction x' + x''/2 is off the path's tangent by the jet's
    # truncation alone, 8.4e-2 at (3, 2) and 2.4e-2 at (17, 16), and by
    # the same to 1e-9 as at the point solved to _FILL_TOL
    (_, (s, loose)) = tangent_errors(monkeypatch, g, k, tight=False)
    (_, (_, tight)) = tangent_errors(monkeypatch, g, k, tight=True)
    assert s == 0.5 and loose <= 0.1 and abs(loose - tight) <= 1e-9


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
    ((closed, _),) = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs)])
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
    `_complete_jet`."""
    t, N = math.sqrt(3.0) * math.cos(cs.alpha_bar) / math.sin(cs.alpha_bar), cs.curvature
    x1, x2 = np.zeros((2, sig.k))
    for c, pq in enumerate(spec.pairs):
        if pq is not None:
            p, q = pq
            f = math.pi / (2.0 * t * (p * p - p * q + q * q))
            x1[c], x2[c] = (2.0 * q - p) * f, -(p + q) * f
    jet = np.zeros((2, sig.n_coords))
    xs = np.array([x1, x2, -x1 - x2]).T
    jet[0, :-1] = (np.array([[1.0], [t], [-1.0], [-t]]) * xs[:, None, :]).ravel()
    jet[1, :-1] = (np.array([x1 * x1, x1 * x2, x2 * x2]).T @ N).ravel()
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
    assert jets.shape == (n, 2, sig.n_coords)
    for spec, jet in zip(specs, jets):
        alone = deformation._complete_jet(sig, cs, [spec])[0]
        assert jet.tobytes() == alone.tobytes() == jet_alone(sig, cs, spec).tobytes()


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
    ((dx, ddx),) = deformation._complete_jet(sig, cs, [FillingSpec.from_pairs(k, pairs)])
    h, ends = 1e-3, []
    for sh in (h, -h):
        L, S, o = deformation._linear_rows(pairs)
        o[:, 11] *= sh
        end, _, (exc,) = deformation._newton(sig, (cs.x0 + sh * dx)[None], (L, S, o), 1e-10)
        assert exc is None, sh
        ends.append(end[0])
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
    N = cs.curvature
    assert N.shape == (3, 12)
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
    with pytest.MonkeyPatch.context() as mp:
        newton = deformation._newton
        mp.setattr(
            deformation, "_newton",
            lambda sig, x0, rows, tol: newton(sig, x0, rows, deformation._FILL_TOL if tol is None else tol),
        )
        fail_first_newton(mp)
        tight = solve_filling(sig, spec)
    assert np.max(np.abs(x - tight)) < 1e-12


def warm_start_continuation(sig, pairs, l_safe=20.0, tol=1e-10):
    """Oracle: a continuation over the schedule of ratio 1.5 in t, each
    Newton started at the previous point of the path."""
    spec = FillingSpec.from_pairs(sig.k, pairs).canonicalized()

    def rows_at(t):
        targets = [None if pq is None else (t * pq[0], t * pq[1]) for pq in spec.pairs]
        return deformation._linear_rows(targets)

    def newton(x, t):
        x, _, (exc,) = deformation._newton(sig, x[None], rows_at(t), tol)
        if exc is not None:
            raise exc
        return x[0]

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
    # from the second-order start at the complete structure
    sig = GKSignature(g, len(pairs))
    calls, newton = [], deformation._newton
    monkeypatch.setattr(deformation, "_newton", lambda *a: calls.append(1) or newton(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(sig.k, pairs))
    assert len(calls) == 1
    assert np.max(np.abs(x - warm_start_continuation(sig, pairs))) < 1e-9


def test_filling_the_sqrt7_gate_admits_is_routed_by_the_gate(monkeypatch):
    # (3, 1 + 1e-12) has length sqrt(7) - 1.9e-13: admitted by the gate's
    # sqrt(7) - 1e-12, so it is solved, in one Newton solve to s = 1
    sig, spec = GKSignature(2, 1), FillingSpec.from_pairs(1, [(3.0, 1.0 + 1e-12)])
    assert spec.is_hyperbolic() and spec.min_filled_length() < math.sqrt(7.0)
    calls, newton = [], deformation._newton
    monkeypatch.setattr(deformation, "_newton", lambda *a: calls.append(1) or newton(*a))
    x = solve_filling(sig, spec)
    assert len(calls) == 1
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
        # the one evaluation is the gate of solve_complete
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
    # form, 6 with the point at s < 1 corrected only to 1e-3, and 4 in
    # one Newton solve from the second-order start
    sig = GKSignature(g, 1)
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    x = solve_filling(sig, FillingSpec.from_pairs(1, [(5.0, 1.0)]))
    assert len(calls) <= 6
    assert np.max(np.abs(residuals(sig, x))) < 1e-10
    pc, qc = dehn_coefficients(x, 0)
    assert abs(pc - 5.0) < 1e-9 and abs(qc - 1.0) < 1e-9


def test_filling_first_step_failure_is_a_continuation_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    sig, spec = GKSignature(2, 1), FillingSpec.from_pairs(1, [(5.0, 1.0)])
    monkeypatch.setattr(deformation, "_block_step", singular)
    with pytest.raises(ConvergenceError) as info:
        solve_filling(sig, spec)
    assert str(info.value).startswith("g=2 k=1 slopes 5/1: continuation step underflow at t=inf, residual ")
    # every Newton solve stopped at its singular first step, at the
    # second-order predictor; the step halves from 1 until it is below
    # 1e-4, so the last one was tried at s = 2^-13
    s = 2.0 ** -13
    cs = solve_complete(sig)
    ((dx, ddx),) = deformation._complete_jet(sig, cs, [spec])
    guess = deformation._clip(cs.x0 + s * dx + (0.5 * s ** 2) * ddx)
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
    """The block steps of `solve_fillings` on the lists, and of
    `solve_filling` on each alone."""
    sig = GKSignature(g, len(lists[0]))
    specs = [FillingSpec.from_pairs(sig.k, pairs) for pairs in lists]
    calls, step = [], deformation._block_step
    monkeypatch.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    alone = []
    for spec in specs:
        calls.clear()
        solve_filling(sig, spec)
        alone.append(len(calls))
    calls.clear()
    solve_fillings(sig, specs)
    return len(calls), alone


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
    assert calls == max(alone)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.integers(2, 200),
    k=st.sampled_from([1, 2, 3, 5, 8]),
    n_lists=st.integers(2, 6),
)
def test_stacked_batch_block_steps_random(seed, g, k, n_lists):
    # slopes of length sqrt(7) to 8 make every list one Newton solve from
    # its second-order start, and the points of a stacked solve ride along
    # with zero steps once they are done, so the stack makes exactly the
    # block steps of the slowest list alone
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(n_lists):
        off = rng.random(k) < 0.3
        off[rng.integers(k)] = False
        lists.append([None if o else pq for pq, o in zip(random_pairs(rng, k, math.sqrt(7.0), 8.0), off)])
    with pytest.MonkeyPatch.context() as mp:
        calls, alone = stacked_and_alone_block_steps(mp, max(g, k + 1), lists)
    assert calls == max(alone)


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


def test_block_steps_fail_only_the_singular_member():
    # numpy fails a whole stacked solve for one singular block
    sig, k = GKSignature(5, 3), 3
    rng = np.random.default_rng(5)
    x = np.array([near_complete(sig, rng) for _ in range(3)])
    targets = [pq for _ in range(3) for pq in mixed_targets(rng, k)]
    r, blocks = deformation._evaluate(sig, x, deformation._linear_rows(targets))
    A, dbeta = blocks()
    A[k] = 0.0
    step, failed = deformation._block_steps(sig, r, A, dbeta)
    assert list(failed) == [1] and isinstance(failed[1], np.linalg.LinAlgError)
    for i in (0, 2):
        alone = deformation._block_step(sig, r[i:i + 1], A[k * i:k * i + k], dbeta[i:i + 1])
        assert step[i].tobytes() == alone[0].tobytes()


def test_newton_refuses_only_the_point_that_is_not_a_number():
    # check_coords' error, for that point alone; the other point converges
    sig = GKSignature(4, 2)
    x0 = np.array([solve_complete(sig).x0] * 2)
    x0[1, 3] = np.nan
    rows = deformation._linear_rows([(30.0, 10.0), None] * 2)
    x, _, errors = deformation._newton(sig, x0, rows, 1e-10)
    assert errors[0] is None and np.max(np.abs(residuals(sig, x[0]))) < 1e-10
    assert isinstance(errors[1], DomainError) and "(0, pi)" in str(errors[1])
    alone, _, _ = deformation._newton(sig, x0[:1], deformation._linear_rows([(30.0, 10.0), None]), 1e-10)
    assert x[0].tobytes() == alone[0].tobytes()


def test_newton_stalls_once_its_step_stops_moving_the_point(monkeypatch):
    # at a tolerance below the residual's rounding floor the full step of a
    # solved point comes to leave every bit of it as it was, and each later
    # step would be the same: the solve ends there, not after 25 iterations
    sig, pairs = GKSignature(3, 2), [(5.0, 1.0), None]
    x = solve_filling(sig, FillingSpec.from_pairs(2, pairs))
    evals, evaluate = [], deformation._evaluate
    monkeypatch.setattr(deformation, "_evaluate", lambda *a: evals.append(1) or evaluate(*a))
    rows = deformation._linear_rows(pairs)
    (y,), _, (exc,) = deformation._newton(sig, x[None], rows, 1e-20)
    r, _ = evaluate(sig, y[None], rows)
    assert str(exc) == "Newton stalled at residual %g" % exc.residual
    assert exc.residual == float(np.abs(r).max())
    # the start and 10 steps; the same call at (2, 1) with 3/1 and at
    # (17, 16) never stalls and ends in "no convergence" after 25
    assert len(evals) == 11


def count_block_steps(mp):
    """The list that gets one entry per `_block_step` call under `mp`."""
    calls, step = [], deformation._block_step
    mp.setattr(deformation, "_block_step", lambda *a: calls.append(1) or step(*a))
    return calls


def path_alone(sig, spec, mp):
    """What `_path` gives `spec` alone from s = 0, under the
    patches of `mp`: its solution or error, its final residual and the
    count of its block solves."""
    calls = count_block_steps(mp)
    cs, spec = solve_complete(sig), spec.canonicalized()
    jet, rows = deformation._complete_jet(sig, cs, [spec])[0], deformation._linear_rows(spec.pairs)
    x, r = deformation._path(sig, cs, spec, jet, rows)
    return outcome(x), None if r is None else r.tobytes(), len(calls)


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
    ((dx, ddx),) = deformation._complete_jet(sig, cs, [spec])
    rows = deformation._linear_rows(spec.pairs)
    seen = set()
    for iterations in range(1, 8):
        monkeypatch.setattr(deformation, "_MAX_ITER", iterations)
        for tol in (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15):
            _, (r,), (exc,) = deformation._newton(sig, (cs.x0 + dx + 0.5 * ddx)[None], rows, tol)
            solved = float(np.abs(r).max()) < tol
            assert (exc is None) == solved, (iterations, tol, exc)
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
