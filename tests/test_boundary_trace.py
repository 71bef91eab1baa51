import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from mgk import boundary_trace as bt
from mgk.deformation import GKSignature, solve_complete
from mgk.hyptrig import DomainError

from conftest import delta0_trace_second_derivative


def mobius_A(lam: float, theta: float) -> np.ndarray:
    """The isometry A(lam, theta) of `bt.trace_gamma`, taking the upward
    half-geodesic at i to the half-geodesic leaving lam*i at angle theta
    from the downward return direction; determinant one by construction.
    The oracle of the trace's closed form, with its refusals."""
    if not lam > 1.0:
        raise DomainError("lambda=%r must exceed 1" % lam)
    if not 0.0 < theta < 2.0 * math.pi:
        raise DomainError("theta=%r outside (0, 2*pi)" % theta)
    rl = math.sqrt(lam)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    return np.array([[rl * s, -rl * c], [c / rl, s / rl]])


def test_mobius_determinant_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = 1.0 + rng.uniform(0.01, 30.0)
        th = rng.uniform(1e-3, 2 * math.pi - 1e-3)
        assert abs(np.linalg.det(mobius_A(lam, th)) - 1.0) < 1e-12


def test_mobius_half_turn_is_diagonal():
    m = mobius_A(4.0, math.pi)
    assert np.allclose(m, [[2.0, 0.0], [0.0, 0.5]])


def test_mobius_geometric_action():
    # A(lam, theta) sends i to lam*i and turns by theta there, measured
    # from the return direction toward i
    lam, theta = 3.7, 2.2
    m = mobius_A(lam, theta)
    z = complex(0.0, 1.0)
    image = (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])
    assert abs(image - lam * 1j) < 1e-12
    deriv = 1.0 / (m[1, 0] * z + m[1, 1]) ** 2
    turn = cmath.phase((deriv * 1j) / (-1j)) % (2 * math.pi)
    assert abs(turn - theta) < 1e-12


def test_mobius_domain():
    with pytest.raises(DomainError):
        mobius_A(0.9, 1.0)
    with pytest.raises(DomainError):
        mobius_A(2.0, 0.0)


def test_trace_gamma_is_the_trace_of_the_matrix_product():
    # the closed form against tr(A(lam, eta) A(lam, zeta)) over a seeded
    # grid, within 8 ulps of its two terms' magnitudes: where the terms
    # cancel, no order of the same products keeps more
    rng = np.random.default_rng(41)
    for _ in range(2000):
        lam = 1.0 + rng.uniform(1e-3, 50.0)
        eta, zeta = rng.uniform(1e-3, 2 * math.pi - 1e-3, 2)
        m = mobius_A(lam, eta) @ mobius_A(lam, zeta)
        e, z = eta / 2.0, zeta / 2.0
        scale = (lam + 1.0 / lam) * abs(math.sin(e) * math.sin(z)) + 2.0 * abs(math.cos(e) * math.cos(z))
        assert abs(bt.trace_gamma(lam, eta, zeta) - (m[0, 0] + m[1, 1])) <= 8.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize(
    "lam, eta, zeta",
    [(0.9, 1.0, 2.0), (1.0, 1.0, 2.0), (math.nan, 1.0, 2.0), (2.0, 0.0, 2.0), (2.0, 1.0, 2.0 * math.pi),
     (2.0, -1.0, 7.0), (2.0, math.nan, 2.0)],
)
def test_trace_gamma_refuses_what_mobius_refuses(lam, eta, zeta):
    # the DomainError, and its message, of the first factor the oracle refuses
    with pytest.raises(DomainError) as want:
        mobius_A(lam, eta) @ mobius_A(lam, zeta)
    with pytest.raises(DomainError, match="^%s$" % re.escape(str(want.value))):
        bt.trace_gamma(lam, eta, zeta)


def test_trace_symmetric_in_angles():
    assert bt.trace_gamma(3.0, 0.7, 2.1) == pytest.approx(
        bt.trace_gamma(3.0, 2.1, 0.7), abs=1e-14
    )


def test_trace_closed_form():
    # tr = (lam + 1/lam) sin(eta/2) sin(zeta/2) - 2 cos(eta/2) cos(zeta/2)
    lam, eta, zeta = 5.0, 1.1, 2.9
    expected = (lam + 1 / lam) * math.sin(eta / 2) * math.sin(zeta / 2) - 2 * math.cos(
        eta / 2
    ) * math.cos(zeta / 2)
    assert abs(bt.trace_gamma(lam, eta, zeta) - expected) < 1e-12


def test_trace_elliptic_limit():
    # lam -> 1: the composite degenerates to the rotation by eta + zeta,
    # with trace -2 cos((eta + zeta)/2); sanity limit only
    eta, zeta = 0.9, 1.7
    expected = -2.0 * math.cos((eta + zeta) / 2.0)
    for lam in (1.1, 1.01, 1.001):
        drift = abs(bt.trace_gamma(lam, eta, zeta) - expected)
    assert drift < 2e-3


def test_trace_translation_length_anchor():
    # at eta = zeta = pi the composite is the pure translation by twice
    # the edge length, so tr = 2 cosh(L), L = log(lam)
    lam = 7.3
    assert abs(bt.trace_gamma(lam, math.pi, math.pi) - 2 * math.cosh(math.log(lam))) < 1e-12


def test_trace_second_derivative_fd_oracle():
    sig = GKSignature(2, 1)
    for delta in (0, 1):
        d = bt.varsigma_trace_data(sig, delta, 1.0)

        def tr(t):
            return bt.trace_gamma(
                d.lambda0,
                d.eta0 + 0.5 * d.eta_dd * t * t,
                d.zeta0 + 0.5 * d.zeta_dd * t * t,
            )

        h = 1e-3
        fd2 = (-tr(2 * h) + 16 * tr(h) - 30 * tr(0) + 16 * tr(-h) - tr(-2 * h)) / (
            12 * h * h
        )
        assert abs(fd2 - bt.trace_second_derivative(d)) < 1e-6
        fd1 = (tr(h) - tr(-h)) / (2 * h)
        assert abs(fd1) < 1e-8


def test_second_derivative_zero_when_angles_frozen():
    d = bt.TraceInput(3.0, 1.0, 2.0, 0.0, 0.0, 0)
    assert bt.trace_second_derivative(d) == 0.0


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 1.0, 2.0, 0.0, 0.0, 0), "lambda0 must exceed 1"),
        ((3.0, 0.0, 2.0, 0.0, 0.0, 0), "eta0=0.0 outside"),
        ((3.0, 1.0, 2.0 * math.pi, 0.0, 0.0, 0), "zeta0=.* outside"),
        ((3.0, 1.0, 2.0, 0.0, 0.0, 2), "delta must be 0 or 1"),
    ],
)
def test_trace_input_validation(args, message):
    with pytest.raises(DomainError, match=message):
        bt.TraceInput(*args)


def test_delta0_closed_form_matches():
    sig = GKSignature(3, 2)
    for r0 in (0.3, 1.0, 2.0):
        d = bt.varsigma_trace_data(sig, 0, r0)
        assert abs(delta0_trace_second_derivative(d) - bt.trace_second_derivative(d)) < 1e-10


def test_varsigma_trace_data_values():
    sig = GKSignature(2, 1)
    sol = solve_complete(sig)
    a = sol.alpha_bar
    d0 = bt.varsigma_trace_data(sig, 0, 1.0)
    assert abs(d0.eta0 - 2 * a) < 1e-14
    assert abs(d0.zeta0 - (4 * a + 1.0)) < 1e-14
    s, c = math.sin(a), math.cos(a)
    assert abs(d0.eta_dd + 8 * c * s) < 1e-12
    assert abs(d0.zeta_dd - 8 * c * s) < 1e-12
    d1 = bt.varsigma_trace_data(sig, 1, 1.0)
    assert d1.zeta_dd == 0.0
    assert abs(d1.zeta0 - (6 * a + 1.0)) < 1e-14
    # lambda0 is exp of the boundary-edge length
    cb = math.cos(sol.beta_bar)
    assert abs(d0.lambda0 - math.exp(math.acosh(cb / (1 - cb)))) < 1e-12
    with pytest.raises(DomainError):
        bt.varsigma_trace_data(sig, 0, 6.0)   # zeta0 beyond 2*pi
    with pytest.raises(DomainError):
        bt.varsigma_trace_data(sig, 2, 1.0)


@pytest.mark.parametrize("g, k, delta", [(2, 1, 0), (2, 1, 1), (7, 3, 0)])
def test_varsigma_trace_data_holds_the_types_it_declares(g, k, delta):
    # floats, not numpy scalars read from the read-only `varsigma` array,
    # and so is the second derivative of the trace that a row reports
    d = bt.varsigma_trace_data(GKSignature(g, k), delta, 1.0)
    assert [type(getattr(d, f.name)) for f in dataclasses.fields(d)] == [float] * 5 + [int]
    assert type(bt.trace_second_derivative(d)) is float


def test_stima_positive_on_admissible_range():
    sig = GKSignature(2, 1)
    for delta in (0, 1):
        for r0 in np.linspace(0.1, 2.8, 20):
            d = bt.varsigma_trace_data(sig, delta, float(r0))
            assert bt.stima_inequality(d.lambda0, d.eta0, d.zeta0)
    # can fail outside: zeta very close to 2*pi with small eta
    assert not bt.stima_inequality(10.0, 0.2, 6.27)
