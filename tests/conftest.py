import math

import numpy as np

from mgk.deformation import GKSignature, solve_filling
from mgk.hyptrig import FillingSpec

# the integer matrices of the torus rotation r: (p, q) -> (p - q, p) and
# reflection s: (p, q) -> (p - q, -q) on coefficient pairs
_R_MATRIX = np.array([[1, -1], [1, 0]], dtype=int)
_S_MATRIX = np.array([[1, -1], [0, -1]], dtype=int)


def d6_matrix(e):
    """The integer matrix of the D6Element e = r^rot s^refl on coefficient
    pairs, the oracle of the integer action of `slopes_symmetry`."""
    m = np.linalg.matrix_power(_R_MATRIX, e.rot)
    if e.refl:
        m = m @ _S_MATRIX
    return m


def delta0_trace_second_derivative(d):
    """The delta = 0 closed form of `boundary_trace.trace_second_derivative`
    (zeta'' = -eta''): tr'' = (eta''/2) (lam + 1/lam - 2) sin((zeta - eta)/2)."""
    assert d.delta == 0
    lam = d.lambda0
    return 0.5 * d.eta_dd * (lam + 1.0 / lam - 2.0) * math.sin((d.zeta0 - d.eta0) / 2.0)


def solved_point(sig: GKSignature, pairs):
    """Solve the structure with the given per-cusp coefficient pairs
    (None = complete); plain wrapper used all over the suite."""
    return solve_filling(sig, FillingSpec.from_pairs(sig.k, pairs))


def random_pairs(rng, k, min_len=12.0, max_len=40.0):
    """k random real coefficient pairs, uniformly spread in direction
    with slope length in range."""
    pairs = []
    for _ in range(k):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        ln = rng.uniform(min_len, max_len)
        p, q = np.cos(ang), np.sin(ang)
        scale = ln / np.sqrt(p * p + q * q - p * q)
        pairs.append((p * scale, q * scale))
    return pairs


def random_filled_points(sig: GKSignature, count, seed, min_len=12.0, max_len=40.0):
    """Solved structures with random real coefficient pairs on every
    cusp (see `random_pairs`)."""
    rng = np.random.default_rng(seed)
    return [solved_point(sig, random_pairs(rng, sig.k, min_len, max_len)) for _ in range(count)]
