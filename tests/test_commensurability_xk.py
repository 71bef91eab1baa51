import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgk import commensurability_xk as cx
from mgk.deformation import (
    GKSignature,
    angle_blocks,
    cusp_angles,
    residuals,
    solve_complete,
    solve_filling,
    varsigma_point,
)
from mgk.hyptrig import DomainError, FillingSpec
from mgk.slopes_symmetry import D6Element, SlopeSetIsometry

from conftest import d6_matrix


def test_signature_validation():
    assert cx.XkSignature(3).gk == GKSignature(4, 3)
    with pytest.raises(DomainError):
        cx.XkSignature(2)
    with pytest.raises(DomainError):
        cx.XkSignature(-1)


def edge_angle_cycle(sig):
    """Coordinate indices (0-based) of the dihedral angles arranged
    cyclically around the compact edge: three runs, the m-th opening with
    m+1 copies of beta followed by the apex-m alpha of every tetrahedron."""
    beta = sig.gk.n_coords - 1
    alphas = angle_blocks(np.arange(beta + 1))[:, :, 0].reshape(-1, 3).T.tolist()
    return [i for m in range(3) for i in [beta] * (m + 1) + alphas[m]]


def test_edge_cycle_shape():
    sig1 = cx.XkSignature(1)
    cycle = edge_angle_cycle(sig1)
    assert len(cycle) == 12 == 6 * sig1.g
    sig3 = cx.XkSignature(3)
    assert len(edge_angle_cycle(sig3)) == 24 == 6 * sig3.g
    # one beta in the first run, two in the second, three in the third
    b = 12 * sig3.k
    assert edge_angle_cycle(sig3).count(b) == 6


def test_edge_cycle_sums_to_2pi():
    sig = cx.XkSignature(3)
    x = solve_filling(sig.gk, FillingSpec.from_pairs(3, [(7.0, 2.0), None, None]))
    total = sum(x[i] for i in edge_angle_cycle(sig))
    assert abs(total - 2 * math.pi) < 1e-10


def cusp_abc(x, cusp):
    """One cusp's share of `abc`: per apex, the sum of the alpha angles of
    its two tetrahedra."""
    return cx.ABCInvariant(*cusp_angles(x, cusp)[:, 0].sum(axis=0).tolist())


def test_abc_at_complete():
    sig = cx.XkSignature(3)
    sol = solve_complete(sig.gk)
    inv = cx.abc(sol.x0, sig)
    expected = 2 * sig.k * sol.alpha_bar
    assert abs(inv.a - expected) < 1e-12
    assert abs(inv.b - expected) < 1e-12
    assert abs(inv.c - expected) < 1e-12


def test_abc_sum_identity():
    sig = cx.XkSignature(3)
    x = solve_filling(sig.gk, FillingSpec.from_pairs(3, [(5.0, 1.0), (8.0, 3.0), None]))
    inv = cx.abc(x, sig)
    assert abs(inv.a + inv.b + inv.c + 6 * x[-1] - 2 * math.pi) < 1e-10


def test_theta_r_table_and_order():
    sig = cx.XkSignature(3)
    x = solve_filling(sig.gk, FillingSpec.from_pairs(3, [(7.0, 2.0), None, None]))
    y = cx.theta_r(x, sig)
    yy = cx.theta_r(y, sig)
    for i in range(3):
        base = cusp_abc(x, i)
        once = cusp_abc(y, i)
        twice = cusp_abc(yy, i)
        assert abs(once.a - base.c) < 1e-14 and abs(twice.a - base.b) < 1e-14
        assert abs(once.b - base.a) < 1e-14 and abs(twice.b - base.c) < 1e-14
        assert abs(once.c - base.b) < 1e-14 and abs(twice.c - base.a) < 1e-14
    z = x
    for _ in range(6):
        z = cx.theta_r(z, sig)
    assert np.array_equal(z, x)
    # fixed point: the complete solution
    sol = solve_complete(sig.gk)
    assert np.allclose(cx.theta_r(sol.x0, sig), sol.x0, atol=1e-15)
    # stays on the variety
    assert np.max(np.abs(residuals(sig.gk, y))) < 1e-10


def test_tau_13():
    sig = cx.XkSignature(3)
    x = solve_filling(sig.gk, FillingSpec.from_pairs(3, [(7.0, 2.0), None, None]))
    t = cx.tau_13(x, sig)
    assert np.array_equal(cx.tau_13(t, sig), x)
    assert abs(cusp_abc(t, 0).a - cusp_abc(x, 2).a) < 1e-15
    assert abs(cusp_abc(t, 2).b - cusp_abc(x, 0).b) < 1e-15
    assert abs(cusp_abc(t, 1).c - cusp_abc(x, 1).c) < 1e-15
    iv, it = cx.abc(x, sig), cx.abc(t, sig)
    assert abs(iv.a - it.a) < 1e-14 and abs(iv.b - it.b) < 1e-14 and abs(iv.c - it.c) < 1e-14
    with pytest.raises(DomainError):
        cx.tau_13(x, cx.XkSignature(1))


def test_theta_r_rotates_coefficients():
    # the rotation acts on every cusp's Dehn coefficients by an exact
    # integer rotation matrix of order six
    from mgk.deformation import dehn_coefficients

    sig = cx.XkSignature(3)
    x = solve_filling(
        sig.gk, FillingSpec.from_pairs(3, [(7.0, 2.0), (5.0, 1.0), (8.0, 3.0)])
    )
    y = cx.theta_r(x, sig)
    m = np.linalg.matrix_power(d6_matrix(D6Element(1)), 5)
    for c in range(3):
        d = np.array(dehn_coefficients(x, c))
        dy = np.array(dehn_coefficients(y, c))
        assert np.max(np.abs(dy - m @ d)) < 1e-9


def test_commensurable_dichotomy():
    sig = cx.XkSignature(3)
    y = varsigma_point(sig.gk, 0.05)
    assert cx.commensurable(y, y, sig) is True
    rotated = cx.theta_r(y, sig)
    assert cx.commensurable(y, rotated, sig) is False
    swapped = cx.tau_13(y, sig)
    assert cx.commensurable(y, swapped, sig) is True


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 3]),
    at=st.integers(0, 2),
    p=st.integers(-300000, 300000),
    q=st.integers(-300000, 300000),
)
def test_a_filling_is_never_commensurable_with_its_rotation(k, at, p, q):
    # theta_r cycles the (a, b, c) sums, which differ at every filled cusp,
    # by about 2.5 / |p|^2, down to 3e-11 within the declared range: far
    # below the 1e-8 band, so only the error bounds keep True out
    assume(math.gcd(p, q) == 1 and p * p - p * q + q * q >= 7)
    sig = cx.XkSignature(k)
    pairs = [None] * k
    pairs[at % k] = (p, q)
    x = solve_filling(sig.gk, FillingSpec.from_pairs(k, pairs))
    assert cx.commensurable(x, cx.theta_r(x, sig), sig) is not True


def test_commensurable_indeterminate_band():
    sig = cx.XkSignature(1)
    sol = solve_complete(sig.gk)
    x1 = sol.x0.copy()
    x2 = sol.x0.copy()
    x2[0] += 3e-8  # shifts a by 3e-8: inside (tol, 10 tol)
    assert cx.commensurable(x1, x2, sig) is None


ELEMENTS = [D6Element(rot, refl) for refl in (False, True) for rot in range(6)]


def generator_by_generator(psi, x):
    """The action written out with the generators: on each cusp `phi_s` if
    its element reflects, then `phi_r` once per rotation; then the cusp
    relabelling."""
    y = np.array(x, dtype=float)
    for cusp, e in enumerate(psi.local):
        if e.refl:
            y = cx.phi_s(y, cusp)
        for _ in range(e.rot):
            y = cx.phi_r(y, cusp)
    return cx.cusp_permutation(y, psi.perm)


@pytest.mark.parametrize("k", [1, 3, 64])
def test_sym_act_is_the_generators_cusp_by_cusp(k):
    # the composed block maps only move values: the same bytes
    rng = np.random.default_rng(k)
    x = rng.uniform(0.1, 3.0, 12 * k + 1)
    cases = [SlopeSetIsometry(tuple(range(k)), (e,) * k) for e in ELEMENTS]
    cases += [SlopeSetIsometry(tuple(rng.permutation(k).tolist()), (e,) * k) for e in ELEMENTS]
    cases += [
        SlopeSetIsometry(tuple(rng.permutation(k).tolist()), tuple(ELEMENTS[i] for i in rng.integers(0, 12, k)))
        for _ in range(4)
    ]
    for psi in cases:
        assert cx.sym_act(psi, x).tobytes() == generator_by_generator(psi, x).tobytes()
    if k % 2:
        rotation = SlopeSetIsometry(tuple(range(k)), (D6Element(5),) * k)
        assert cx.theta_r(x, cx.XkSignature(k)).tobytes() == generator_by_generator(rotation, x).tobytes()


def test_each_element_is_composed_once_not_once_per_cusp(monkeypatch):
    calls, phi_r = [], cx.phi_r
    monkeypatch.setattr(cx, "phi_r", lambda *a: calls.append(1) or phi_r(*a))
    rng = np.random.default_rng(63)
    x = rng.uniform(0.1, 3.0, 12 * 63 + 1)
    cx.theta_r(x, cx.XkSignature(63))
    assert len(calls) <= 5
    for _ in range(3):
        local = tuple(ELEMENTS[i] for i in rng.integers(0, 12, 63))
        calls.clear()
        cx.sym_act(SlopeSetIsometry(tuple(rng.permutation(63).tolist()), local), x)
        assert len(calls) <= 5 * len(set(local))
