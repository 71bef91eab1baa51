"""Hyperbolic trigonometry oracle for the tests: the triangle cosine/sine
rules and the right-angled hexagon rule, written out one scalar at a time.

Angles are radians in (0, pi).  Side lengths are carried around as their
hyperbolic cosines; arccosh is applied only where an actual length is
reported, since every downstream equation is itself in cosh/sinh form.
"""

import math

from mgk.hyptrig import DomainError

# angles must stay this far inside (0, pi): every rule divides by sines
EPS_DOM = 1e-12


def check_angle(a: float, name: str = "angle") -> None:
    if not (EPS_DOM < a < math.pi - EPS_DOM):
        raise DomainError("%s=%r outside (0, pi)" % (name, a))


def triangle_side_cosh(alpha1: float, alpha2: float, alpha3: float) -> float:
    """cosh of the hyperbolic-triangle side opposite alpha1.

    Requires alpha1 + alpha2 + alpha3 < pi.  Symmetric in (alpha2, alpha3).
    """
    for a in (alpha1, alpha2, alpha3):
        check_angle(a)
    if alpha1 + alpha2 + alpha3 >= math.pi:
        raise DomainError("angle sum >= pi: not a hyperbolic triangle")
    return (math.cos(alpha2) * math.cos(alpha3) + math.cos(alpha1)) / (
        math.sin(alpha2) * math.sin(alpha3)
    )


def triangle_sides(alpha1: float, alpha2: float, alpha3: float):
    """All three side coshes, by cyclic application of the cosine rule.

    The sine rule sinh(a_i)/sin(alpha_i) = const holds across the outputs.
    """
    return (
        triangle_side_cosh(alpha1, alpha2, alpha3),
        triangle_side_cosh(alpha2, alpha3, alpha1),
        triangle_side_cosh(alpha3, alpha1, alpha2),
    )


def hexagon_side_cosh(c1: float, c2: float, c3: float) -> float:
    """cosh of the right-angled-hexagon side opposite the side with cosh c1.

    c1, c2, c3 are the coshes of three pairwise non-adjacent sides.
    Symmetric in (c2, c3); for c1 = c2 = c3 = c the value is c/(c-1).
    """
    for c in (c1, c2, c3):
        if not c > 1.0:
            raise DomainError("cosh value %r <= 1" % (c,))
    return (c2 * c3 + c1) / (
        math.sqrt(c2 * c2 - 1.0) * math.sqrt(c3 * c3 - 1.0)
    )


def log_sinh(length: float) -> float:
    """log(sinh(length)) without forming exp of a large argument."""
    if not length > 0.0:
        raise DomainError("length %r <= 0" % (length,))
    return length + math.log1p(-math.exp(-2.0 * length)) - math.log(2.0)
