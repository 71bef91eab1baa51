"""The odd-k chain family (signature g = k+1): the angle cycle around its
single compact edge, the a/b/c edge-angle-sum invariants that determine
the commensurability class of its fillings, and the two symmetry
constructions (alternating rotation, cusp 1 <-> 3 exchange) used to
produce non-commensurable and commensurable similar fillings."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .deformation import GKSignature, angle_blocks, check_coords, cusp_angles
from .hyptrig import DomainError
from .slopes_symmetry import D6Element, apply_local, cusp_permutation

# (a, b, c) sums closer than this agree; from 10x this apart they differ
INVARIANT_TOL = 1e-8


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

    def close_to(self, other: "ABCInvariant", tol: float) -> bool:
        return (
            abs(self.a - other.a) < tol
            and abs(self.b - other.b) < tol
            and abs(self.c - other.c) < tol
        )


def edge_angle_cycle(sig: XkSignature) -> List[int]:
    """Coordinate indices (0-based) of the dihedral angles arranged
    cyclically around the compact edge: three runs, the m-th opening with
    m+1 copies of beta followed by the apex-m alpha of every tetrahedron.
    Length 6(k+1); the entries of a solved point sum to 2*pi."""
    beta = sig.gk.n_coords - 1
    alphas = angle_blocks(np.arange(beta + 1))[:, :, 0].reshape(-1, 3).T.tolist()
    return [i for m in range(3) for i in [beta] * (m + 1) + alphas[m]]


def abc(x, sig: XkSignature) -> ABCInvariant:
    """Edge-angle sums around the compact edge, one per apex: the m-th is
    the sum over cusps of the two apex-m alpha angles of the cusp pair."""
    pairs = angle_blocks(check_coords(sig.gk, x))[:, :, 0].sum(axis=1)
    return ABCInvariant(*(sum(col) for col in pairs.T.tolist()))


def abc_per_cusp(x, sig: XkSignature, cusp: int) -> ABCInvariant:
    return ABCInvariant(*cusp_angles(check_coords(sig.gk, x), cusp)[:, 0].sum(axis=0).tolist())


def commensurable(x1, x2, sig: XkSignature) -> Optional[bool]:
    """Whether two solved fillings of the chain manifold are
    commensurable: exactly the equality of their (a, b, c) sums.

    The criterion is an algebraic dichotomy, so near-ties are not
    silently booleanized: if the largest difference lands between
    INVARIANT_TOL and 10*INVARIANT_TOL, None ("indeterminate") is
    returned.
    """
    i1, i2 = abc(x1, sig), abc(x2, sig)
    deltas = [abs(i1.a - i2.a), abs(i1.b - i2.b), abs(i1.c - i2.c)]
    if all(d < INVARIANT_TOL for d in deltas):
        return True
    if max(deltas) >= 10.0 * INVARIANT_TOL:
        return False
    return None


def theta_r(x, sig: XkSignature) -> np.ndarray:
    """The variety symmetry induced by the torus rotation that acts by
    pi/3 positively on odd-position cusps and negatively on even ones
    (positions alternate because the exceptional hexagons of consecutive
    cusp pairs are arranged with opposite orientations).  On coordinates
    it is one and the same local generator word on every cusp; its
    sixth power is the identity, and it cycles (a, b, c) -> (c, a, b)."""
    x = check_coords(sig.gk, x)
    y = np.array(x, dtype=float)
    for i in range(sig.k):
        y = apply_local(y, i, D6Element(5, False))
    return y


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
