import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgk import cli
from mgk import cusp_invariants as ci
from mgk.deformation import (
    GKSignature,
    cusp_angles,
    solve_complete,
    solve_filling,
    uv,
)
from mgk.hyptrig import DomainError, FillingSpec

from conftest import random_filled_points, solved_point


def holonomy_dilations(x, cusp):
    """The oracle of `uv`: the dilation components (a, b) of the
    holonomies of the two marked peripheral curves, computed directly
    from the gamma angles, a path independent of exp of `uv`."""
    gA, gB = cusp_angles(x, cusp)[:, 1].tolist()
    a = (math.sin(gA[0]) * math.sin(gB[1]) / (math.sin(gA[1]) * math.sin(gB[0]))) * cmath.exp(
        1j * (gA[2] - gB[2])
    )
    b = (math.sin(gA[1]) * math.sin(gB[2]) / (math.sin(gA[2]) * math.sin(gB[1]))) * cmath.exp(
        1j * (gA[0] - gB[0])
    )
    return a, b


def test_dilations_trivial_at_complete():
    sol = solve_complete(GKSignature(2, 1))
    assert holonomy_dilations(sol.x0, 0) == (1, 1)


def test_dilations_match_exp_of_uv():
    # two independent formula paths agree on random solved points
    sig = GKSignature(2, 1)
    for x in random_filled_points(sig, 4, seed=11):
        u, v = uv(x, 0)
        a, b = holonomy_dilations(x, 0)
        assert abs(cmath.exp(u) - a) < 1e-12
        assert abs(cmath.exp(v) - b) < 1e-12
        # modulus of a is the sine ratio by construction
        assert abs(abs(a) - math.exp(u.real)) < 1e-12


def test_modulus_hexagonal_at_complete():
    sol = solve_complete(GKSignature(3, 2))
    for c in range(2):
        tau = ci.cusp_modulus(sol.x0, c)
        assert abs(tau - ci.HEXAGONAL_MODULUS) < 1e-12


def test_modulus_isolated_under_filling():
    sig = GKSignature(3, 2)
    x = solved_point(sig, [None, (8.0, 3.0)])
    tau = ci.cusp_modulus(x, 0)
    assert abs(tau - ci.HEXAGONAL_MODULUS) < 1e-9


def test_modulus_requires_completeness():
    sig = GKSignature(2, 1)
    x = solved_point(sig, [(5.0, 1.0)])
    with pytest.raises(ci.IncompleteCuspError):
        ci.cusp_modulus(x, 0)


def test_canonicalize_modulus():
    hexa = ci.HEXAGONAL_MODULUS
    # both hexagonal boundary representatives collapse to exp(i pi/3)
    assert abs(ci.canonicalize_modulus(complex(-0.5, math.sqrt(3) / 2)) - hexa) < 1e-15
    assert abs(ci.canonicalize_modulus(hexa) - hexa) < 1e-15
    # translation and inversion invariance
    z = complex(0.21, 1.37)
    assert abs(ci.canonicalize_modulus(z + 3) - ci.canonicalize_modulus(z)) < 1e-14
    assert abs(ci.canonicalize_modulus(-1 / z) - ci.canonicalize_modulus(z)) < 1e-14
    # on |tau| = 1 left of the imaginary axis, -1/tau = -conj(tau) is the
    # same lattice on the right half of the arc
    r = math.sqrt(0.91)
    assert abs(ci.canonicalize_modulus(complex(-0.3, r)) - complex(0.3, r)) < 1e-15
    with pytest.raises(DomainError):
        ci.canonicalize_modulus(complex(0.3, -1.0))


@pytest.mark.parametrize(
    "tau",
    [complex(math.nan, 1.0), complex(math.inf, 1.0), complex(-math.inf, 2.0), complex(0.3, math.inf),
     complex(0.3, math.nan), complex(math.nan, math.nan)],
)
def test_canonicalize_modulus_refuses_a_modulus_that_is_not_finite(tau):
    # NaN + 1j raised ValueError, inf + 1j OverflowError, and 0.3 + inf j
    # came back unreduced: none has a reduction
    with pytest.raises(DomainError, match="is not finite$"):
        ci.canonicalize_modulus(tau)


def test_canonicalize_modulus_inverts_inside_the_unit_circle():
    # |tau| < 1 after the shift: tau -> -1/tau, then shifted again
    assert ci.canonicalize_modulus(0.5j) == 2j
    assert abs(ci.canonicalize_modulus(complex(0.3, 0.4)) - complex(-0.2, 1.6)) < 1e-14


def test_complex_length_well_defined_mod_2pi():
    sig = GKSignature(2, 1)
    x = solved_point(sig, [(7.0, 2.0)])
    u, v = uv(x, 0)
    base = ci.complex_length(x, 0, (7, 2))
    # any other Bezout choice differs by a multiple of p*u + q*v = 2*pi*i
    r, s = 1, 0   # 7*0 - 2*1 = -2?  no: need p*s - q*r = -1 -> s=1, r=4: 7-8=-1
    w = 4 * u + 1 * v
    if w.real < 0:
        w = -w
    im = math.remainder(w.imag, 2 * math.pi)
    if im <= -math.pi:
        im += 2 * math.pi
    assert abs(complex(w.real, im) - base) < 1e-12


def test_complex_length_simple_slope():
    sig = GKSignature(2, 1)
    x = solved_point(sig, [(10.0, 0.0)])
    _, v = uv(x, 0)
    w = -v
    if w.real < 0:
        w = -w
    got = ci.complex_length(x, 0, (10, 0))
    assert abs(got.real - w.real) < 1e-12
    assert got.real > 0
    assert -math.pi < got.imag <= math.pi


def test_complex_length_shrinks_along_ray():
    sig = GKSignature(2, 1)
    lengths = []
    for n in (10, 20, 40, 80):
        x = solved_point(sig, [(float(n), 0.0)])
        lengths.append(ci.complex_length(x, 0, (n, 0)).real)
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def _rotation_images(p, q):
    # the six images r^m (p, q) of the order-6 rotation r: (p, q) -> (p - q, p)
    out = []
    for _ in range(6):
        out.append((p, q))
        p, q = p - q, p
    return out


@settings(max_examples=40, deadline=None)
@given(p=st.integers(-500000, 500000), q=st.integers(-500000, 500000))
def test_complex_length_agrees_on_the_rotation_images(p, q):
    # the six rotation images of a slope on (2, 1) give isometric fillings,
    # with one core geodesic; r*u + s*v lost its real part, about
    # 1/|p + q omega|^2, to cancellation: a spread of 0.45 at 499999/3
    assume(math.gcd(p, q) == 1 and p * p + q * q - p * q >= 7 and abs(p - q) <= 500000)
    sig = GKSignature(2, 1)
    lengths = [
        ci.complex_length(solve_filling(sig, FillingSpec.from_pairs(1, [pq])), 0, pq)
        for pq in _rotation_images(p, q)
    ]
    real = [w.real for w in lengths]
    assert max(real) - min(real) <= 1e-9 * max(real)
    assert all(abs(math.remainder(w.imag - lengths[0].imag, 2.0 * math.pi)) <= 1e-9 for w in lengths)


def test_complex_length_far_slope_in_the_report(capsys):
    # the core geodesic of 499999/3 has length 2 pi Im(tau) / |p + q tau|^2
    # at the cusp shape tau; r*u + s*v gave 3.9596e-11
    assert cli.main(["fill", "--g", "2", "--k", "1", "--coeffs", "499999/3"]) == 0
    out = capsys.readouterr().out
    length = re.search(r"core length ([0-9.]+e-[0-9]+)[-+]", out).group(1)
    assert "%.6g" % float(length) == "2.17658e-11"


def test_complex_length_errors():
    sig = GKSignature(2, 1)
    sol = solve_complete(sig)
    with pytest.raises(ci.IncompleteCuspError):
        ci.complex_length(sol.x0, 0, (5, 1))
    x = solved_point(sig, [(5.0, 1.0)])
    with pytest.raises(DomainError):
        ci.complex_length(x, 0, (0, 0))


def test_complex_length_sign_flip_and_half_turn_wrap():
    # synthetic (u, v) with Im(v/u) < 0: the real part comes out negative
    # and is flipped, and the flipped imaginary part, exactly -pi, is
    # wrapped to +pi; (1, 0) has Bezout coefficients (a, b) = (1, 0)
    assert ci._bezout(1, 0) == (1, 1, 0)
    w = ci._complex_length(1.0 + 0.0j, complex(-0.5, -0.3), 0, (1, 0))
    assert w == complex(0.6 * math.pi, math.pi)


@pytest.mark.parametrize(
    "pq", [(math.nan, 1), (math.inf, 1), (1, -math.inf), (1, math.nan), (2.5, 1)]
)
def test_complex_length_needs_finite_integers(pq):
    x = solved_point(GKSignature(2, 1), [(5.0, 1.0)])
    with pytest.raises(DomainError, match="needs integer coefficients"):
        ci.complex_length(x, 0, pq)


def test_return_path_length_value_and_monotonicity():
    sig = GKSignature(2, 1)
    sol = solve_complete(sig)
    got = ci.return_path_length(sol.x0)
    # closed form through the hexagon rule
    c = math.cos(sol.beta_bar) / (1.0 - math.cos(sol.beta_bar))
    assert c > 1
    assert abs(got - math.acosh(c / (c - 1.0))) < 1e-15
    # strictly increasing in beta on (0, pi/3)
    vals = []
    for beta in (0.3, 0.4, 0.5, 0.6, 0.9):
        x = sol.x0.copy()
        x[-1] = beta
        vals.append(ci.return_path_length(x))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    x[-1] = math.pi / 3
    with pytest.raises(DomainError):
        ci.return_path_length(x)


def test_return_path_is_hexagon_rule_composition():
    # the compact edge is the internal edge of a regular right-angled
    # hexagon whose boundary sides all have cosh = cos(b)/(1-cos(b))
    from trig_rules import hexagon_side_cosh

    sol = solve_complete(GKSignature(2, 1))
    c = math.cos(sol.beta_bar) / (1.0 - math.cos(sol.beta_bar))
    assert abs(
        ci.return_path_length(sol.x0) - math.acosh(hexagon_side_cosh(c, c, c))
    ) < 1e-14


def test_return_path_depends_only_on_beta():
    sig = GKSignature(2, 1)
    x1 = solved_point(sig, [(19.0, 11.0)])
    x2 = solved_point(sig, [(8.0, 19.0)])   # the pi/3-rotated slope
    assert abs(ci.return_path_length(x1) - ci.return_path_length(x2)) < 1e-10


def test_homology_rank_and_heegaard_genus():
    sig = GKSignature(3, 2)
    assert ci.homology_rank(sig, 0) == 5
    assert ci.homology_rank(sig, 1) == 4
    assert ci.homology_rank(sig, 2) == 3
    assert ci.heegaard_genus(sig) == 4
    assert ci.heegaard_genus(GKSignature(2, 1)) == 3
    with pytest.raises(DomainError):
        ci.homology_rank(sig, 3)


def test_unimodular_lattice_anchor():
    # p*s - q*r = -1 pins the (2*pi*i, CL) lattice change of basis
    p, q = 7, 2
    g, a, b = ci._bezout(p, q)
    assert g == 1 and p * a + q * b == 1
    s_int, r_int = -a, b
    assert p * s_int - q * r_int == -1
