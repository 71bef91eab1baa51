"""Per-structure invariants: cusp moduli, complex lengths of core
geodesics, the shortest-return-path length, and the two integer
invariants (first-homology rank, Heegaard genus)."""

import cmath
import math
from typing import Tuple

from .deformation import COMPLETE_TOL, GKSignature, _versine, cusp_angles, uv
from .hyptrig import DomainError

HEXAGONAL_MODULUS = complex(0.5, math.sqrt(3.0) / 2.0)
# |u| above which cusp_modulus refuses a cusp as incomplete (looser than
# the COMPLETE_TOL below which complex_length refuses it as unfilled)
_MODULUS_COMPLETE_TOL = 1e-8
# width of the fundamental domain's boundary that canonicalize_modulus resolves
_BOUNDARY_TOL = 1e-12


class IncompleteCuspError(DomainError):
    """The requested quantity is only defined at a complete cusp."""


def canonicalize_modulus(tau: complex) -> complex:
    """Reduce a modulus in the upper half-plane to the standard
    fundamental domain |Re| <= 1/2, |tau| >= 1, resolving its boundary so
    that the regular hexagonal lattice is represented by exp(i*pi/3).  A
    modulus that is not finite is refused: it has no reduction."""
    if not cmath.isfinite(tau):
        raise DomainError("modulus %r is not finite" % (tau,))
    if not tau.imag > 0:
        raise DomainError("modulus %r is not in the upper half-plane" % (tau,))
    for _ in range(256):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
        else:
            break
    if tau.real < -0.5 + _BOUNDARY_TOL:
        tau += 1.0
    if abs(abs(tau) - 1.0) < _BOUNDARY_TOL and tau.real < -_BOUNDARY_TOL:
        tau = -1.0 / tau
    return tau


def cusp_modulus(x, cusp: int) -> complex:
    """Similarity class of the Euclidean structure on a complete cusp
    torus, canonicalized to the modular fundamental domain.

    The torus is two Euclidean triangles with the gamma angles of the
    cusp's tetrahedron pair, glued along corresponding sides; the first
    develops with positive orientation, the second with negative (the
    face gluings reverse orientation).  The returned value is the ratio
    of the translations of the two marked curves.  Raises on an
    incomplete cusp, where the structure is affine rather than metric.
    """
    return _modulus(cusp_angles(x, cusp)[1, 1].tolist(), uv(x, cusp)[0], cusp)


def _modulus(h, u: complex, cusp: int) -> complex:
    """`cusp_modulus` from the gammas h (by apex) of the cusp's second
    tetrahedron and the cusp's u."""
    if abs(u) > _MODULUS_COMPLETE_TOL:
        raise IncompleteCuspError(
            "cusp %d is incomplete (|u| = %.3g)" % (cusp, abs(u))
        )
    # first triangle: corners C0 = 0, C1 = 1 (the side crossing face 2);
    # second triangle attached across it with corners 0 and 1 exchanged,
    # in the lower half-plane.
    s = math.sin(h[0]) / math.sin(h[2])
    t_mu = 1.0 + 0.0j
    t_lambda = -s * cmath.exp(-1j * h[1])
    return canonicalize_modulus(t_lambda / t_mu)


def _bezout(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def complex_length(x, cusp: int, pq: Tuple[int, int]) -> complex:
    """Complex length of the geodesic added by filling `cusp` along the
    finite integer coefficients (p, q): r*u + s*v for integers with
    p*s - q*r = -gcd(p, q), reduced mod 2*pi*i and sign-normalized to
    positive real part."""
    p, q = pq
    try:
        integral = p == int(p) and q == int(q)
    except (ValueError, OverflowError):  # NaN, infinity
        integral = False
    if not integral:
        raise DomainError("complex length needs integer coefficients")
    p, q = int(p), int(q)
    if (p, q) == (0, 0):
        raise DomainError("(0, 0) is not a slope")
    return _complex_length(*uv(x, cusp), cusp, (p, q))


def _complex_length(u: complex, v: complex, cusp: int, pq: Tuple[int, int]) -> complex:
    """`complex_length` from the cusp's (u, v), for integers pq != (0, 0)."""
    if abs(u) < COMPLETE_TOL:
        raise IncompleteCuspError("cusp %d is unfilled; no added geodesic" % cusp)
    g, a, b = _bezout(*pq)
    # (r, s) = (b, -a): p*(-a) - q*b = -gcd.  By the row p*u + q*v = 2*pi*i,
    # r*u + s*v = 2*pi*i (b - a tau) / (p + q tau), tau = v/u, whose real part
    # 2*pi gcd Im(tau) / |p + q tau|^2 r*u + s*v loses to cancellation.
    tau = v / u
    d = pq[0] + pq[1] * tau
    w = complex(2.0 * math.pi * g * tau.imag / abs(d) ** 2, 2.0 * math.pi * ((b - a * tau) / d).real)
    if w.real < 0:
        w = -w
    im = math.remainder(w.imag, 2.0 * math.pi)
    if im <= -math.pi:
        im += 2.0 * math.pi
    return complex(w.real, im)


def return_path_length(x) -> float:
    """Length of the compact edge, the shortest return path: arccosh of
    c/(c-1) with c = cos(beta)/(1-cos(beta)).  Defined for beta < pi/3.
    It is read as arccosh(1 + t) = log1p(t + sqrt(t (t + 2))) with
    t = 1/(c-1) = (1 - cos beta)/(2 cos beta - 1), because at large g
    c/(c-1) is near 1, where arccosh of its rounded value loses up to
    eps/(2t) of the result: 2.4e-12 at (200, 64) with 3/1 on one cusp."""
    beta = float(x[-1])
    if not 0.0 < beta < math.pi / 3.0:
        raise DomainError("beta=%r outside (0, pi/3): no compact edge" % beta)
    t = _versine(beta) / (2.0 * math.cos(beta) - 1.0)
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def homology_rank(sig: GKSignature, filled: int) -> int:
    """Rank of the first homology after filling `filled` cusps."""
    if not 0 <= filled <= sig.k:
        raise DomainError("filled count %d outside 0..k" % filled)
    return sig.g + sig.k - filled


def heegaard_genus(sig: GKSignature) -> int:
    """Heegaard genus of the manifold and of all its hyperbolic fillings."""
    return sig.g + 1
