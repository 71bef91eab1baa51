"""Acceptance suite: one test per certification item, each printing a
PASS line with the tolerance it enforced (run pytest -s to see them)."""

import math

import numpy as np
import pytest

from mgk import boundary_trace as bt
from mgk import commensurability_xk as cx
from mgk import cusp_invariants as ci
from mgk import slopes_symmetry as ss
from mgk.deformation import (
    GKSignature,
    dehn_coefficients,
    jacobian,
    residuals,
    solve_complete,
    solve_filling,
    tangent_basis,
    uv,
    varsigma_derivatives,
    varsigma_point,
)
from mgk.hyptrig import FillingSpec

from conftest import delta0_trace_second_derivative, random_filled_points, solved_point

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


def done(msg):
    print("PASS " + msg)


def test_c01_complete_solution_certification():
    for g, k in [(2, 1), (3, 1), (3, 2), (4, 3), (5, 3)]:
        sig = GKSignature(g, k)
        sol = solve_complete(sig)
        assert np.max(np.abs(residuals(sig, sol.x0))) < 1e-12
        lhs = math.cos(sol.beta_bar)
        rhs = (2.0 * math.cos(sol.alpha_bar) ** 2 + 1.0) / 3.0
        assert abs(lhs - rhs) < 1e-12
        assert sol.alpha_bar < sol.beta_bar < 2.0 * sol.alpha_bar <= math.pi / 3.0 + 5e-16
    done("[C01] complete solutions for five signatures certified at 1e-12")


def test_c02_dimension_of_variety():
    for g, k in [(2, 1), (3, 2), (4, 3)]:
        sig = GKSignature(g, k)
        x0 = solve_complete(sig).x0
        n = sig.n_coords
        h = 1e-6
        J = np.empty((sig.n_residuals, n))
        for j in range(n):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            J[:, j] = (residuals(sig, xp) - residuals(sig, xm)) / (2.0 * h)
        sv = np.linalg.svd(np.vstack([J, np.zeros((2 * k, n))]), compute_uv=False)
        assert sv[10 * k] / max(sv[10 * k + 1], 1e-300) >= 1e6
        _, _, vt = np.linalg.svd(J, full_matrices=True)
        q_num, _ = np.linalg.qr(vt[10 * k + 1:].T)
        q_cf, _ = np.linalg.qr(tangent_basis(sig).T)
        dist = np.linalg.norm(q_num @ q_num.T - q_cf @ q_cf.T, ord=2)
        assert dist < 1e-8
    done("[C02] nullity 2k with sv-gap >= 1e6 and closed-form tangent match < 1e-8")


def test_c03_filling_round_trip():
    sig = GKSignature(2, 1)
    for pq in [(3, 1), (5, 1), (7, 2), (19, 11), (16, -1)]:
        x = solve_filling(sig, FillingSpec.from_pairs(1, [pq]))
        assert np.max(np.abs(residuals(sig, x))) < 1e-10
        p, q = dehn_coefficients(x, 0)
        assert abs(p - pq[0]) < 1e-9 and abs(q - pq[1]) < 1e-9
    done("[C03] five fillings solved below 1e-10 and coefficients recovered to 1e-9")


def test_c04_cusp_ratio_limit():
    sig = GKSignature(2, 1)
    errors = []
    for n in (10, 20, 40, 80):
        x = solved_point(sig, [(float(n), 0.0)])
        u, v = uv(x, 0)
        errors.append(abs(v / u - OMEGA))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 1e-2
    done("[C04] v/u -> -1/2 + i sqrt(3)/2 monotonically, final error %.2e < 1e-2" % errors[-1])


def test_c05_isolation():
    sig = GKSignature(3, 2)
    hexa = ci.HEXAGONAL_MODULUS
    for pq in [(3, 1), (5, 1), (8, 3), (7, -2)]:
        x = solved_point(sig, [None, (float(pq[0]), float(pq[1]))])
        assert abs(ci.cusp_modulus(x, 0) - hexa) < 1e-9
        assert abs(x[0] - x[1]) < 1e-9 and abs(x[1] - x[2]) < 1e-9
        for j in range(3, 6):
            assert abs(x[j] - math.pi / 3.0) < 1e-9
        for j in range(9, 12):
            assert abs(x[j] - math.pi / 3.0) < 1e-9
    done("[C05] unfilled cusp stays hexagonal and rigidly symmetric within 1e-9")


def test_c06_symmetry_equivariance():
    points = random_filled_points(GKSignature(2, 1), 14, seed=101)
    points += random_filled_points(GKSignature(3, 2), 6, seed=202)
    checked = 0
    for x in points:
        k = (len(x) - 1) // 12
        for c in range(k):
            u, v = uv(x, c)
            p, q = dehn_coefficients(x, c)
            xr = cx.phi_r(x, c)
            ur, vr = uv(xr, c)
            assert abs(ur + v) < 1e-10 and abs(vr - (u + v)) < 1e-10
            pr, qr = dehn_coefficients(xr, c)
            assert abs(pr - (p - q)) < 1e-10 and abs(qr - p) < 1e-10
            xs = cx.phi_s(x, c)
            us, vs = uv(xs, c)
            assert abs(us + u.conjugate()) < 1e-10
            assert abs(vs - (u.conjugate() + v.conjugate())) < 1e-10
            ps, qs = dehn_coefficients(xs, c)
            assert abs(ps - (p - q)) < 1e-10 and abs(qs + q) < 1e-10
        checked += 1
    assert checked == 20
    done("[C06] generator transformation laws hold to 1e-10 on 20 solved points")


def test_c07_slope_classification_oracle():
    for lsq, orbits in ss.classify_slopes(400):
        for orb in orbits:
            expected = 3 if lsq in (1, 3) else 6
            assert len(orb) == expected
    a = ss.make_slope_set(1, {0: (19, 11)})
    b = ss.make_slope_set(1, {0: (16, -1)})
    assert ss.slope_sets_equivalent(a, b, orientation_preserving=True) is None
    assert ss.slope_sets_equivalent(a, b, orientation_preserving=False) is None
    done("[C07] orbit sizes 3/3/6 verified over L^2 <= 400; the sqrt(273) pair split")


def test_c08_similarity_count():
    # the count (k! 3^h)/(h! (k-h)!) = 27 is attained exactly when the
    # two filled tori carry the same slope class; for inequivalent generic
    # slopes it is a strict lower bound (the orbit doubles)
    same = ss.make_slope_set(3, {0: (3, 1), 1: (3, 1)})
    orbit = ss.enumerate_equivalent_sets(same)
    assert len(orbit) == 27
    for member in orbit:
        assert ss.slope_sets_equivalent(same, member) is not None
    distinct = ss.make_slope_set(3, {0: (3, 1), 1: (5, 1)})
    orbit2 = ss.enumerate_equivalent_sets(distinct)
    assert len(orbit2) >= 27
    for member in orbit2:
        assert ss.slope_sets_equivalent(distinct, member) is not None
    done("[C08] orbit of 27 slope sets certified; inequivalent pair gives %d >= 27" % len(orbit2))


def test_c09_curve_second_derivative():
    for g, k in [(2, 1), (3, 2)]:
        sig = GKSignature(g, k)
        first, second = varsigma_derivatives(sig)
        h = 0.01
        pts = {m: varsigma_point(sig, m * h) for m in (-2, -1, 0, 1, 2)}
        fd2 = (-pts[2] + 16 * pts[1] - 30 * pts[0] + 16 * pts[-1] - pts[-2]) / (
            12.0 * h * h
        )
        assert np.max(np.abs(fd2 - second)) < 1e-4
        # the x1 = x7 second-derivative pin is active
        assert abs(fd2[0] - fd2[6]) < 1e-6
        fd1 = (-pts[2] + 8 * pts[1] - 8 * pts[-1] + pts[-2]) / (12.0 * h)
        assert np.max(np.abs(fd1 - first)) < 1e-4
    done("[C09] curve second derivative matches the closed form within 1e-4")


def test_c10_non_isolation_witness():
    sig = GKSignature(2, 1)
    grid = np.linspace(0.1, 2.8, 20)
    for delta in (0, 1):
        for r0 in grid:
            data = bt.varsigma_trace_data(sig, delta, float(r0))

            def tr(t):
                return bt.trace_gamma(
                    data.lambda0,
                    data.eta0 + 0.5 * data.eta_dd * t * t,
                    data.zeta0 + 0.5 * data.zeta_dd * t * t,
                )

            h = 1e-4
            fd1 = (tr(h) - tr(-h)) / (2.0 * h)
            assert abs(fd1) < 1e-8
            tdd = bt.trace_second_derivative(data)
            assert abs(tdd) > 1e-6
            if delta == 0:
                assert abs(tdd - delta0_trace_second_derivative(data)) < 1e-10
    done("[C10] trace stationary to 1e-8, |tr''| > 1e-6 on 20 r0 values, both deltas")


def test_c11_commensurability_trichotomy():
    sig = cx.XkSignature(3)
    y = varsigma_point(sig.gk, 0.06)
    assert np.max(np.abs(residuals(sig.gk, y))) < 1e-10
    rotated = cx.theta_r(y, sig)
    twice = cx.theta_r(rotated, sig)
    triples = [cx.abc(p, sig) for p in (y, rotated, twice)]
    for inv, x in zip(triples, (y, rotated, twice)):
        assert abs(inv.a + inv.b + inv.c + 6.0 * x[-1] - 2.0 * math.pi) < 1e-10
    for i in range(3):
        for j in range(i + 1, 3):
            sep = max(
                abs(triples[i].a - triples[j].a),
                abs(triples[i].b - triples[j].b),
                abs(triples[i].c - triples[j].c),
            )
            assert sep > 1e-6
            assert cx.commensurable(
                [y, rotated, twice][i], [y, rotated, twice][j], sig
            ) is False
    swapped = cx.tau_13(y, sig)
    same = cx.abc(swapped, sig)
    assert max(abs(triples[0].a - same.a), abs(triples[0].b - same.b), abs(triples[0].c - same.c)) < 1e-9
    assert cx.commensurable(y, swapped, sig) is True
    done("[C11] rotated triple pairwise non-commensurable; cusp-1/3 pair commensurable")


def test_c12_scalar_invariants():
    sig = GKSignature(3, 2)
    assert ci.heegaard_genus(sig) == 4
    for h, want in [(0, 5), (1, 4), (2, 3)]:
        assert ci.homology_rank(sig, h) == want
    sig21 = GKSignature(2, 1)
    assert ci.heegaard_genus(sig21) == 3
    # return path depends only on beta: exact across a dihedral orbit
    orbit = [(19, 11), (8, 19), (8, -11)]
    lengths = []
    for pq in orbit:
        x = solved_point(sig21, [(float(pq[0]), float(pq[1]))])
        lengths.append(ci.return_path_length(x))
    assert max(lengths) - min(lengths) < 1e-10
    done("[C12] homology g+k-h, genus g+1, return path equal across the orbit to 1e-10")
