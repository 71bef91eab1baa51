"""The fields a report prints, against a 50-digit oracle.

The oracle writes the square system out again, one scalar at a time, in
mpmath: the layout of `mgk.deformation`'s docstring, the truncation
triangles of `tetrahedron.py` (the side at face vertex j has angles
gamma^j, alpha^{j+1}, alpha^{j+2}) and the log-holonomies (u, v) of each
cusp's gammas.  `mpmath.findroot` refines the float solution to 50
digits (when only the first cusp is filled, in the 13 unknowns of its
block and beta, each unfilled block being the symmetric point at beta),
and u, v, the coefficients, the core length, an unfilled cusp's modulus
and the return path are compared with their values there, and so are
the (a, b, c) sums of the chain manifold's fillings.

The doubles carry u and v to about 1e-16 absolute, not relative, so far
out (499999/3) the text's 12 significant digits of a small Re u or Re L
are not all right (CHANGES.md); those fields are held to the error they
have, and the others to each digit they print.
"""

import json
import math
import re

import mpmath as mp
import numpy as np
import pytest

from mgk import cli
from mgk.commensurability_xk import XkSignature, abc, abc_error, theta_r
from mgk import deformation
from mgk.deformation import GKSignature, solve_complete, solve_filling, uv
from mgk.hyptrig import FillingSpec
from mgk.report import build_report, report_to_text


def oracle_rows(g, k, pairs):
    """The 12k+1 rows of the square system at the mpmath point x: per
    tetrahedron its three length rows and its ideal-vertex sum, per cusp
    its two sine-product rows and its two cusp rows, and the total angle."""

    def rows(*x):
        beta = x[12 * k]
        edge = mp.cos(beta) / (1 - mp.cos(beta))
        out = []
        for t in range(2 * k):
            alpha, gamma = x[6 * t:6 * t + 3], x[6 * t + 3:6 * t + 6]
            for j in range(3):
                a1, a2 = alpha[(j + 1) % 3], alpha[(j + 2) % 3]
                out.append((mp.cos(a1) * mp.cos(a2) + mp.cos(gamma[j])) / (mp.sin(a1) * mp.sin(a2)) - edge)
            out.append(sum(gamma) - mp.pi)
        for c, pq in enumerate(pairs):
            A, B = x[12 * c:12 * c + 6], x[12 * c + 6:12 * c + 12]
            Pi = [mp.sin(A[j]) * mp.sin(B[j]) * mp.sin(A[3 + j]) * mp.sin(B[3 + j]) for j in range(3)]
            u, v = oracle_uv(x, c)
            w = u if pq is None else pq[0] * u + pq[1] * v - 2j * mp.pi
            out += [Pi[0] - Pi[1], Pi[1] - Pi[2], mp.re(w), mp.im(w)]
        out.append(6 * (g - k) * beta + sum(x[6 * t + j] for t in range(2 * k) for j in range(3)) - 2 * mp.pi)
        return out

    return rows


def oracle_uv(x, c):
    """(u, v) of cusp c from the gammas gA, gB of its tetrahedra 2c, 2c+1."""
    gA, gB = x[12 * c + 3:12 * c + 6], x[12 * c + 9:12 * c + 12]
    u = mp.log(mp.sin(gA[0]) * mp.sin(gB[1]) / (mp.sin(gA[1]) * mp.sin(gB[0]))) + 1j * (gA[2] - gB[2])
    v = mp.log(mp.sin(gA[1]) * mp.sin(gB[2]) / (mp.sin(gA[2]) * mp.sin(gB[1]))) + 1j * (gA[0] - gB[0])
    return u, v


def symmetric_alpha(beta):
    """The alpha of a symmetric block at beta, all its gammas pi/3: the
    root of its length rows (cos^2 a + 1/2) / sin^2 a = cos b / (1 - cos b)."""
    return mp.asin(mp.sqrt(3) * mp.sin(beta / 2))


def oracle_point(g, k, pairs, x):
    """The root of the square system near the float point x.  When only
    cusp 0 is filled, each unfilled block is the symmetric point at beta,
    and findroot solves 13 unknowns, cusp 0's block and beta: the rows of
    the one-cusp system at g - k + 1, whose total angle gains the 6(k - 1)
    alphas of the symmetric blocks.  Otherwise it solves all 12k + 1."""
    start = [mp.mpf(float(v)) for v in x]
    tol = mp.mpf(10) ** -90
    if any(pq is not None for pq in pairs[1:]):
        sol = mp.findroot(oracle_rows(g, k, pairs), start, tol=tol)
        return [sol[i] for i in range(len(x))]
    one_cusp = oracle_rows(g - k + 1, 1, pairs[:1])

    def rows(*y):
        out = one_cusp(*y)
        out[-1] += 6 * (k - 1) * symmetric_alpha(y[12])
        return out

    sol = mp.findroot(rows, start[:12] + start[-1:], tol=tol)
    alpha, third = symmetric_alpha(sol[12]), mp.pi / 3
    return [sol[i] for i in range(12)] + [alpha, alpha, alpha, third, third, third] * (2 * k - 2) + [sol[12]]


def core_length(u, v, p, q):
    """r u + s v for integers with p s - q r = 1, of positive real part,
    its imaginary part reduced into (-pi, pi]."""
    r = -pow(q, -1, p)
    L = r * u + (1 + q * r) // p * v
    if mp.re(L) < 0:
        L = -L
    return mp.mpc(mp.re(L), mp.pi - (mp.pi - mp.im(L)) % (2 * mp.pi))


def printed_within_half_unit(text, value, digits=12):
    """The printed `text` is `value` to its `digits` significant digits,
    up to the rounding of the double it was printed from."""
    half = 0.5 * mp.mpf(10) ** (mp.floor(mp.log10(abs(value))) - digits + 1) if value else 0
    return abs(mp.mpf(text) - value) <= half + 1e-15 * abs(value)


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (17, 16), (65, 64)])
@pytest.mark.parametrize("slope", ["3/1", "7/2", "10007/13", "100003/7", "299999/2", "499999/3", "1234567/1"])
def test_uv_is_the_log_holonomy_of_the_float_point_to_its_last_digits(g, k, slope):
    """`uv` against the same formula at 40 digits on the double point x
    itself: near the complete structure the ratio of sines is 1 + O(|u|),
    and its log lost up to 2e-11 |u| to the ratio's rounding."""
    x = solve_filling(GKSignature(g, k), FillingSpec.parse(",".join([slope] + ["5/1"] * (k - 1)), k))
    with mp.workdps(40):
        xs = [mp.mpf(float(t)) for t in x]
        for c in range(min(k, 2)):
            for got, exact in zip(uv(x, c), oracle_uv(xs, c)):
                assert abs(got - exact) < 1e-15 * abs(exact)


COMPLEX = r"([-+]?[\d.]+(?:e[-+]\d+)?)([-+][\d.]+(?:e[-+]\d+)?)i"


@pytest.mark.parametrize(
    "g, k, coeffs",
    [(2, 1, s) for s in ("3/1", "7/2", "101/7", "10007/13", "100003/7", "499999/3")]
    + [(3, 2, "3/1,5/1"), (3, 2, "5/1,inf"), (3, 2, "10007/13,7/2"), (3, 2, "499999/3,3/1")]
    # one filled cusp beside 15 or 63 unfilled ones, up to the far corner
    # of the declared range, where the return path is arccosh near 1
    + [(g, k, ",".join([s] + ["inf"] * (k - 1))) for g, k in ((17, 16), (200, 64)) for s in ("3/1", "10007/13")]
    # table starts that already meet the gate: the answer is one block step
    # that Newton takes all the same
    + [(12, 1, "3/1"), (12, 4, "3/1,5/1,7/2,inf")],
    ids=lambda v: v.split(",")[0] + ",inf..." if isinstance(v, str) and len(v) > 40 else None,
)
def test_report_fields_match_the_50_digit_oracle(g, k, coeffs):
    sig, spec = GKSignature(g, k), FillingSpec.parse(coeffs, k)
    x = solve_filling(sig, spec)
    doc = build_report(sig, spec, x)
    text = report_to_text(doc)
    pairs = spec.canonicalized().pairs
    with mp.workdps(50):
        xs = oracle_point(g, k, pairs, x)
        # the float solution's root, within what the 1e-10 gate leaves
        assert max(abs(r) for r in oracle_rows(g, k, pairs)(*xs)) < 1e-40
        assert max(abs(a - float(b)) for a, b in zip(xs, x)) < 1e-9
        lines = [line for line in text.splitlines() if line.startswith("cusp ")]
        for c, (pq, cusp, line) in enumerate(zip(pairs, doc["cusps"], lines)):
            u, v = oracle_uv(xs, c)
            # absolute, as the angles they are read off have size about 1
            assert abs(complex(*cusp["u"]) - u) < 1e-14 and abs(complex(*cusp["v"]) - v) < 1e-14
            if pq is None:
                # isolation: an unfilled cusp is the symmetric block, all gammas
                # pi/3, so its modulus is the hexagonal exp(i pi/3)
                gammas = xs[12 * c + 3:12 * c + 6] + xs[12 * c + 9:12 * c + 12]
                assert max(abs(t - mp.pi / 3) for t in gammas) < 1e-40
                assert "coeff inf" in line and cusp["coefficients_error"] is None
                re_m, im_m = re.search("modulus " + COMPLEX, line).groups()
                assert printed_within_half_unit(re_m, mp.mpf(1) / 2)
                assert printed_within_half_unit(im_m, mp.sqrt(3) / 2)
                continue
            # the slope that the oracle's (u, v) fill, within the reported
            # bound, and printed as its integers
            det = mp.re(u) * mp.im(v) - mp.im(u) * mp.re(v)
            exact = (-2 * mp.pi * mp.re(v) / det, 2 * mp.pi * mp.re(u) / det)
            assert max(abs(a - b) for a, b in zip(exact, pq)) < 1e-40
            assert max(abs(a - b) for a, b in zip(cusp["coefficients"], exact)) <= cusp["coefficients_error"]
            assert "coeff (%d, %d)" % pq in line
            L = core_length(u, v, int(pq[0]), int(pq[1]))
            cl = cusp["complex_length"]
            assert abs(cl[0] - mp.re(L)) < 1e-11 * mp.re(L) and abs(cl[1] - mp.im(L)) < 1e-14
        beta = xs[-1]
        edge = mp.cos(beta) / (1 - mp.cos(beta))
        printed = re.search(r"return path +(\S+)", text).group(1)
        assert printed_within_half_unit(printed, mp.acosh(edge / (edge - 1)))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("slope", ["7/2", "1001/3", "10007/13", "100003/7", "299999/2"])
def test_rotated_fillings_differ_beyond_the_abc_bounds(capsys, k, slope):
    """A filling of the chain manifold and its rotations by `theta_r` have
    cyclically shifted (a, b, c) sums, a gap of about 2.5 / |p|^2: 2.5e-10
    at 100003/7, far below the 1e-8 band but above the error bound of each
    point.  Every pair is NOT commensurable, and each abc that the command
    prints lies within its `abc_error` of the oracle's."""
    sig = XkSignature(k)
    spec = FillingSpec.parse(",".join([slope] + ["inf"] * (k - 1)), k)
    assert cli.main(["--json", "commensurable", "--k", str(k), slope + "@1", "--rotated"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [pair["commensurable"] for pair in doc["pairs"]] == [False] * 3
    x = solve_filling(sig.gk, spec)
    points = [x, theta_r(x, sig), theta_r(theta_r(x, sig), sig)]
    # theta_r permutes the coordinates: read the permutation off distinct angles
    ids = np.linspace(0.1, 3.0, len(x))
    perm = np.searchsorted(ids, theta_r(ids, sig)).tolist()
    with mp.workdps(50):
        rows = oracle_rows(sig.g, k, spec.canonicalized().pairs)
        sol = mp.findroot(rows, [mp.mpf(float(v)) for v in x], tol=mp.mpf(10) ** -90)
        exact = [sol[i] for i in range(len(x))]
        assert max(abs(r) for r in rows(*exact)) < 1e-40
        for row, point in zip(doc["structures"], points):
            inv = abc(point, sig)
            assert row["abc"] == [inv.a, inv.b, inv.c]
            want = [sum(exact[6 * t + m] for t in range(2 * k)) for m in range(3)]
            assert max(abs(got - w) for got, w in zip(row["abc"], want)) <= abc_error(point, sig)
            exact = [exact[i] for i in perm]


@pytest.mark.parametrize("g, k, constant", [(2, 1, 1.01344), (3, 2, 0.48205)])
def test_the_boundary_moves_by_the_quartic_constant(g, k, constant):
    """The paper's deformation of the geodesic boundary, to leading order:
    with one cusp filled far out, beta - beta_bar = -C(g, k) / |p + q
    omega|^4 + ..., where C(g, k) comes from the solver record's order-4
    constants, beta_quartic (9 pi^4 / 16 t^4): the path's beta moves by
    -beta_quartic Q^2 at s = 1, with Q = x1^2 + x1 x2 + x2^2 = 3 pi^2 / (4
    t^2 |p + q omega|^2) of the tangent.  At 10007/13 the next term is
    relative O(|p + q omega|^-2), and the doubles hold beta_bar bit for bit,
    so the shift is read off the 50-digit root."""
    sig = GKSignature(g, k)
    cs = solve_complete(sig)
    C = cs.beta_quartic * 9.0 * math.pi ** 4 / (16.0 * cs.cot_scale ** 4)
    assert abs(C - constant) < 1e-5
    p, q = 10007, 13
    spec = FillingSpec.parse(",".join(["%d/%d" % (p, q)] + ["inf"] * (k - 1)), k)
    x = solve_filling(sig, spec)
    with mp.workdps(50):
        xs = oracle_point(g, k, spec.canonicalized().pairs, x)
        angle_sum = lambda b: 6 * k * symmetric_alpha(b) + 6 * (g - k) * b - 2 * mp.pi
        beta_bar = mp.findroot(angle_sum, mp.mpf(cs.beta_bar))
        shift = (xs[-1] - beta_bar) * (p * p - p * q + q * q) ** 2
    assert abs(shift + C) <= 1e-4 * C


@pytest.mark.parametrize("g, k, slope", [(2, 1, (7, 2)), (3, 2, (3, 1))])
def test_the_jet_is_the_taylor_series_of_the_50_digit_path(g, k, slope):
    """The jet's c1..c4, c_n = x^(n)/n! at s = 0, against central
    differences of the path's points at s = 0, +-h, +-2h, each a 50-digit
    root of the rows p u + q v = 2 pi i s, that is of the filling (p, q) / s:
    to 1e-9 of each order's largest entry, where the differences are good
    to about h^2.  With an unfilled cusp beside, the differences see beta's
    c4 and the alphas that follow it."""
    sig = GKSignature(g, k)
    cs = solve_complete(sig)
    spec = FillingSpec.from_pairs(k, [slope] + [None] * (k - 1))
    (jet,) = deformation._complete_jet(sig, cs, [spec.canonicalized()])
    h = mp.mpf(10) ** -6
    with mp.workdps(50):
        points = []
        for m in (-2, -1, 0, 1, 2):
            s = m * h
            start = cs.x0 + sum(float(s) ** n * jet[n - 1] for n in range(1, 5))
            pairs = [(slope[0] / s, slope[1] / s) if s else None] + [None] * (k - 1)
            points.append(mp.matrix(oracle_point(g, k, pairs, start)))
        xm2, xm1, x0, x1, x2 = points
        fd = [
            (-x2 + 8 * x1 - 8 * xm1 + xm2) / (12 * h),
            (-x2 + 16 * x1 - 30 * x0 + 16 * xm1 - xm2) / (24 * h ** 2),
            (x2 - 2 * x1 + 2 * xm1 - xm2) / (12 * h ** 3),
            (x2 - 4 * x1 + 6 * x0 - 4 * xm1 + xm2) / (24 * h ** 4),
        ]
        for got, want in zip(jet, fd):
            want = [float(v) for v in want]
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
