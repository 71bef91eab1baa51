"""A single partially truncated tetrahedron: an independent oracle that
the tests check the vectorised residual kernel against.

Vertex/edge conventions, the ones `mgk.deformation` lays out its
coordinates by (all indices 0-based):

  * vertices 0, 1, 2 span the compact face; vertex 3 is the apex and is
    the ideal vertex when there is one;
  * e^j (j = 0, 1, 2) is the compact-face edge joining the two face
    vertices other than j, carrying the dihedral angle alpha[j];
  * f^j is the edge opposite e^j, joining vertex j to the apex, carrying
    gamma[j];
  * face vertex m therefore meets e^{m+1}, e^{m+2}, f^m, so the
    truncation triangle at m has angles (gamma^m, alpha^{m+1}, alpha^{m+2}).

A dihedral-angle assignment in (0, pi) is geometric iff the three angles
around every vertex sum to pi at an ideal vertex and to less than pi at a
truncated one; `validate` reports violations of exactly that.
"""

import math
from dataclasses import dataclass
from typing import Optional

from mgk.hyptrig import DomainError
from trig_rules import EPS_DOM, hexagon_side_cosh, log_sinh, triangle_side_cosh

IDEAL_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TruncatedTetrahedron:
    """Dihedral angles of one partially truncated tetrahedron.

    `ideal_vertex` is None for a compact tetrahedron and 3 when the apex
    is ideal (the labelling above puts the ideal vertex at the apex).
    """

    alpha: tuple
    gamma: tuple
    ideal_vertex: Optional[int] = None

    @classmethod
    def regular_compact(cls, beta: float) -> "TruncatedTetrahedron":
        return cls((beta, beta, beta), (beta, beta, beta), None)

    @classmethod
    def one_ideal(cls, alpha, gamma) -> "TruncatedTetrahedron":
        return cls(tuple(alpha), tuple(gamma), 3)


def vertex_angle_sum(tet: TruncatedTetrahedron, vertex: int) -> float:
    """Sum of the dihedral angles along the three edges at `vertex`."""
    if vertex == 3:
        return sum(tet.gamma)
    m = vertex
    return tet.gamma[m] + tet.alpha[(m + 1) % 3] + tet.alpha[(m + 2) % 3]


def validate(tet: TruncatedTetrahedron, tol: float = IDEAL_SUM_TOL):
    """List of violated geometricity conditions; empty iff realizable."""
    bad = []
    if tet.ideal_vertex not in (None, 3):
        bad.append("ideal vertex must be the apex (index 3) in this labelling")
        return bad
    if len(tet.alpha) != 3 or len(tet.gamma) != 3:
        bad.append("six dihedral angles required")
        return bad
    for name, angles in (("alpha", tet.alpha), ("gamma", tet.gamma)):
        for j, a in enumerate(angles):
            if not (EPS_DOM < a < math.pi - EPS_DOM):
                bad.append("%s[%d]=%r outside (0, pi)" % (name, j, a))
    if bad:
        return bad
    for v in range(4):
        s = vertex_angle_sum(tet, v)
        if v == tet.ideal_vertex:
            if abs(s - math.pi) > tol:
                bad.append("ideal vertex sum %r != pi" % (s,))
        elif s >= math.pi:
            bad.append("vertex %d angle sum %r >= pi" % (v, s))
    return bad


def _require_one_ideal(tet: TruncatedTetrahedron) -> None:
    if tet.ideal_vertex is None:
        raise DomainError("tetrahedron has no ideal vertex")
    bad = validate(tet)
    if bad:
        raise DomainError("invalid tetrahedron: " + "; ".join(bad))


def boundary_edge_cosh(tet: TruncatedTetrahedron, j: int) -> float:
    """cosh of the compact-face boundary edge cut off at face vertex j+2.

    This is the truncation-triangle side lying in the compact lateral
    hexagon, via the triangle cosine rule with angles
    (alpha^j, alpha^{j+1}, gamma^{j+2}).
    """
    _require_one_ideal(tet)
    a, g = tet.alpha, tet.gamma
    return triangle_side_cosh(g[(j + 2) % 3], a[j % 3], a[(j + 1) % 3])


def boundary_edge_coshes(tet: TruncatedTetrahedron):
    return tuple(boundary_edge_cosh(tet, j) for j in range(3))


def internal_edge_cosh(b1: float, b2: float, b3: float) -> float:
    """cosh of the lateral-hexagon internal edge opposite the boundary
    edge with cosh b1, given the three boundary-edge coshes."""
    return hexagon_side_cosh(b1, b2, b3)


@dataclass(frozen=True)
class ExceptionalHexagonData:
    """The four dihedral angles and two boundary-edge lengths entering the
    horoball-offset invariant of an exceptional lateral hexagon."""

    theta_e1: float
    theta_e2: float
    theta_e4: float
    theta_e5: float
    L_e46: float
    L_e56: float


def sigma(hexagon: ExceptionalHexagonData) -> float:
    """Signed horoball offset of an exceptional hexagon.

    Computed fully in log space.  Antisymmetric under swapping the two
    lengths together with the two angle pairs; zero on symmetric data.
    """
    for L in (hexagon.L_e46, hexagon.L_e56):
        if not L > 0.0:
            raise DomainError("boundary edge length %r <= 0" % (L,))
    for th in (hexagon.theta_e1, hexagon.theta_e2, hexagon.theta_e4, hexagon.theta_e5):
        if not (EPS_DOM < th < math.pi - EPS_DOM):
            raise DomainError("dihedral angle %r outside (0, pi)" % (th,))
    return (
        log_sinh(hexagon.L_e56)
        - log_sinh(hexagon.L_e46)
        + math.log(math.sin(hexagon.theta_e2))
        + math.log(math.sin(hexagon.theta_e5))
        - math.log(math.sin(hexagon.theta_e1))
        - math.log(math.sin(hexagon.theta_e4))
    )


def exceptional_hexagon(tet: TruncatedTetrahedron, j: int) -> ExceptionalHexagonData:
    """Data of the exceptional hexagon containing internal edge e^j.

    The hexagon meets the truncation triangles at face vertices j+1 and
    j+2; the two boundary edges entering sigma are their compact-face
    sides, and the four angles are the gamma/alpha pairs at apices j+1
    and j+2.  This labelling is the one under which sigma-pairing across
    a face gluing is equivalent to the sine-product matching equations
    (checked by the test suite on solved structures).
    """
    _require_one_ideal(tet)
    a, g = tet.alpha, tet.gamma
    j0, j1, j2 = j % 3, (j + 1) % 3, (j + 2) % 3
    cosh_46 = triangle_side_cosh(g[j1], a[j0], a[j2])
    cosh_56 = triangle_side_cosh(g[j2], a[j0], a[j1])
    return ExceptionalHexagonData(
        theta_e1=g[j1],
        theta_e2=g[j2],
        theta_e4=a[j1],
        theta_e5=a[j2],
        L_e46=math.acosh(cosh_46),
        L_e56=math.acosh(cosh_56),
    )
