"""Symmetries of the deformation variety, and the odd-k chain family
(signature g = k+1).

Each cusp carries symmetries generated by apex permutations of its
tetrahedron pair and the swap of the pair; on Dehn coefficients `phi_r`
and `phi_s` transport to the torus isometries r and s of
`slopes_symmetry`, and cusp permutations to relabelling of the tori
(`sym_act`).  On the chain family: the a/b/c angle sums around its
single compact edge, the invariants that determine the
commensurability class of its fillings, and the two symmetry
constructions (alternating rotation, cusp 1 <-> 3 exchange) used to
produce non-commensurable and commensurable similar fillings."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .deformation import GKSignature, angle_blocks, check_coords, correction, cusp_angles, cusps_of
from .hyptrig import DomainError
from .slopes_symmetry import D6Element, SlopeSetIsometry

# (a, b, c) sums closer than this agree; from 10x this apart they differ
INVARIANT_TOL = 1e-8

# apex 3-cycle used by the rotation generator: sigma(0)=2, sigma(1)=0, sigma(2)=1
_SIGMA_R = (2, 0, 1)
_SIGMA_S = (1, 0, 2)


def apex_permutation(x, cusp: int, sigma: Sequence[int]) -> np.ndarray:
    """Permute the three apices of both tetrahedra of `cusp` by sigma
    (new angle at apex j = old angle at apex sigma^{-1}(j))."""
    y = np.array(x, dtype=float)
    cusp_angles(y, cusp)[...] = cusp_angles(x, cusp)[..., np.argsort(sigma)]
    return y


def tetra_swap(x, cusp: int) -> np.ndarray:
    """Exchange the roles of the two tetrahedra of `cusp`."""
    y = np.array(x, dtype=float)
    cusp_angles(y, cusp)[...] = cusp_angles(x, cusp)[::-1]
    return y


def cusp_permutation(x, kappa: Sequence[int]) -> np.ndarray:
    """Relabel cusps by kappa (new block i = old block kappa^{-1}(i))."""
    if sorted(kappa) != list(range(cusps_of(x))):
        raise DomainError("kappa is not a permutation of 0..k-1")
    y = np.array(x, dtype=float)
    angle_blocks(y)[...] = angle_blocks(x)[np.argsort(kappa)]
    return y


def phi_r(x, cusp: int) -> np.ndarray:
    """Variety symmetry transporting to the pi/3 rotation on the cusp
    torus: u -> -v, v -> u + v, Dehn coefficients (p,q) -> (p-q, p)."""
    return apex_permutation(tetra_swap(x, cusp), cusp, _SIGMA_R)


def phi_s(x, cusp: int) -> np.ndarray:
    """Variety symmetry transporting to the reflection fixing the mu-axis:
    u -> -conj(u), v -> conj(u) + conj(v), (p,q) -> (p-q, -q)."""
    return apex_permutation(x, cusp, _SIGMA_S)


def _block_map(e: D6Element) -> np.ndarray:
    """The action of the local torus isometry e = r^rot s^refl on one cusp
    block, as an index map of its 12 angles (new angle j = old angle m[j]):
    the generators themselves, reflection first, then rotations, applied
    to the indices of a one-cusp point."""
    m = np.arange(13.0)
    if e.refl:
        m = phi_s(m, 0)
    for _ in range(e.rot):
        m = phi_r(m, 0)
    return m[:12].astype(int)


def sym_act(psi: SlopeSetIsometry, x) -> np.ndarray:
    """Apply the variety symmetry corresponding to a marked-tori isometry:
    local pieces first, one gather over the cusp blocks, then the cusp
    relabelling; Dehn coefficients transform by the corresponding
    pushforward."""
    k = cusps_of(x)
    if len(psi.perm) != k:
        raise DomainError("isometry is for %d tori, point has %d cusps" % (len(psi.perm), k))
    maps = {e: _block_map(e) for e in set(psi.local)}
    x = np.asarray(x, dtype=float)
    local = np.take_along_axis(angle_blocks(x).reshape(k, 12), np.array([maps[e] for e in psi.local]), 1)
    return cusp_permutation(np.append(local, x[-1]), psi.perm)


@dataclass(frozen=True)
class XkSignature:
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise DomainError("the chain family needs odd k >= 1")

    @property
    def g(self) -> int:
        return self.k + 1

    @property
    def gk(self) -> GKSignature:
        return GKSignature(self.g, self.k)


@dataclass(frozen=True)
class ABCInvariant:
    a: float
    b: float
    c: float


def abc(x, sig: XkSignature) -> ABCInvariant:
    """Edge-angle sums around the compact edge, one per apex: the m-th is
    the sum over cusps of the two apex-m alpha angles of the cusp pair."""
    pairs = angle_blocks(check_coords(sig.gk, x))[:, :, 0].sum(axis=1)
    return ABCInvariant(*(sum(col) for col in pairs.T.tolist()))


def abc_error(x, sig: XkSignature) -> float:
    """A bound on the error of `abc(x, sig)` against the (a, b, c) sums of
    the exact structure that fills x's own recovered coefficients: the
    alpha entries of the next Newton correction at x
    (`deformation.correction`), summed in absolute value, plus the
    rounding of the sums, 2k eps times the sum of the alphas.  inf where
    that correction is undefined."""
    try:
        step = correction(sig.gk, x)
    except (DomainError, np.linalg.LinAlgError):
        return np.inf
    rounding = 2.0 * sig.k * np.finfo(float).eps * angle_blocks(x)[:, :, 0].sum()
    return float(np.abs(angle_blocks(step)[:, :, 0]).sum() + rounding)


def commensurable(x1, x2, sig: XkSignature) -> Optional[bool]:
    """Whether two solved fillings of the chain manifold are
    commensurable: exactly the equality of their (a, b, c) sums.

    The largest difference of the sums is a certified difference, False,
    when it exceeds the sum of the two points' `abc_error` bounds, at any
    size.  Otherwise the band rule decides: True below INVARIANT_TOL,
    None ("indeterminate", a near-tie not silently booleanized) up to
    10*INVARIANT_TOL, and False from there on.
    """
    i1, i2 = abc(x1, sig), abc(x2, sig)
    gap = max(abs(i1.a - i2.a), abs(i1.b - i2.b), abs(i1.c - i2.c))
    if gap >= 10.0 * INVARIANT_TOL or gap > abc_error(x1, sig) + abc_error(x2, sig):
        return False
    return True if gap < INVARIANT_TOL else None


def theta_r(x, sig: XkSignature) -> np.ndarray:
    """The variety symmetry induced by the torus rotation that acts by
    pi/3 positively on odd-position cusps and negatively on even ones
    (positions alternate because the exceptional hexagons of consecutive
    cusp pairs are arranged with opposite orientations).  On coordinates
    it is one and the same local generator word on every cusp; its
    sixth power is the identity, and it cycles (a, b, c) -> (c, a, b)."""
    x = check_coords(sig.gk, x)
    return np.append(angle_blocks(x).reshape(sig.k, 12)[:, _block_map(D6Element(5, False))], x[-1])


def tau_13(x, sig: XkSignature) -> np.ndarray:
    """The cusp relabelling exchanging the first and third cusps; an
    involution that swaps the per-cusp (a, b, c) blocks 1 and 3 and
    therefore preserves the totals."""
    if sig.k < 3:
        raise DomainError("cusp exchange 1<->3 needs k >= 3")
    check_coords(sig.gk, x)
    kappa = list(range(sig.k))
    kappa[0], kappa[2] = 2, 0
    return cusp_permutation(x, kappa)
