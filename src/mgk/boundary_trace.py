"""Boundary-holonomy trace computations certifying that deformations
along the distinguished curve bend the geodesic boundary at second order.

The holonomy of the chosen boundary loop is a product of two isometries
A(lambda, theta) of the upper half-plane, each moving the base geodesic
segment of length log(lambda) and turning by theta.  Along the curve the
first derivatives of lambda and of both turning angles vanish, so the
second derivative of the trace has a two-term closed form in the second
derivatives of the angles; whether the two terms cancel depends on a
combinatorial bit delta of the triangulation, and both branches are
covered here.
"""

import math
from dataclasses import dataclass

from .deformation import GKSignature, edge_cosh, solve_complete
from .hyptrig import DomainError


@dataclass(frozen=True)
class TraceInput:
    lambda0: float       # exp of the boundary-edge length, > 1
    eta0: float          # first turning angle at t = 0, in (0, 2*pi)
    zeta0: float         # second turning angle at t = 0, in (0, 2*pi)
    eta_dd: float        # second derivative of eta at 0
    zeta_dd: float       # second derivative of zeta at 0
    delta: int           # combinatorial bit, 0 or 1

    def __post_init__(self):
        if not self.lambda0 > 1.0:
            raise DomainError("lambda0 must exceed 1")
        for name, th in (("eta0", self.eta0), ("zeta0", self.zeta0)):
            if not 0.0 < th < 2.0 * math.pi:
                raise DomainError("%s=%r outside (0, 2*pi)" % (name, th))
        if self.delta not in (0, 1):
            raise DomainError("delta must be 0 or 1")


def trace_gamma(lam: float, eta: float, zeta: float) -> float:
    """Trace of A(lam, eta) A(lam, zeta), where A(lam, theta) is the
    isometry taking the upward half-geodesic at i to the half-geodesic
    leaving lam*i at angle theta from the downward return direction:

      (lam + 1/lam) sin(eta/2) sin(zeta/2) - 2 cos(eta/2) cos(zeta/2).

    It equals +-2 cosh(L/2) for the boundary geodesic of length L it
    represents, and is symmetric in the two angles.  Refuses what A does:
    lam <= 1, or an angle outside (0, 2*pi)."""
    if not lam > 1.0:
        raise DomainError("lambda=%r must exceed 1" % lam)
    for theta in (eta, zeta):
        if not 0.0 < theta < 2.0 * math.pi:
            raise DomainError("theta=%r outside (0, 2*pi)" % theta)
    e, z = eta / 2.0, zeta / 2.0
    return (lam + 1.0 / lam) * math.sin(e) * math.sin(z) - 2.0 * math.cos(e) * math.cos(z)


def _eta_coefficient(lam: float, eta: float, zeta: float) -> float:
    # the eta'' coefficient of 2 tr''; with eta and zeta exchanged, the zeta'' one
    lpl = lam + 1.0 / lam
    return lpl * math.cos(eta / 2.0) * math.sin(zeta / 2.0) + 2.0 * math.sin(eta / 2.0) * math.cos(zeta / 2.0)


def trace_second_derivative(inp: TraceInput) -> float:
    """Second t-derivative at 0 of the trace along a path with stationary
    lambda, eta, zeta (their first derivatives vanish):

      2 tr'' = eta''*((lam + 1/lam) cos(eta/2) sin(zeta/2)
                       + 2 sin(eta/2) cos(zeta/2))
             + zeta''*((lam + 1/lam) sin(eta/2) cos(zeta/2)
                       + 2 cos(eta/2) sin(zeta/2)).
    """
    lam, eta, zeta = inp.lambda0, inp.eta0, inp.zeta0
    return 0.5 * (inp.eta_dd * _eta_coefficient(lam, eta, zeta) + inp.zeta_dd * _eta_coefficient(lam, zeta, eta))


def stima_inequality(lambda0: float, eta0: float, zeta0: float) -> bool:
    """Positivity of the eta''-coefficient in the trace second derivative,
    the estimate that settles the delta = 1 branch."""
    return _eta_coefficient(lambda0, eta0, zeta0) > 0.0


def varsigma_trace_data(sig: GKSignature, delta: int, r0: float) -> TraceInput:
    """Trace data at t = 0 along the distinguished curve.

    The loop's two segments are boundary edges, so lambda0 is exp of the
    boundary-edge length; eta0 = 2*alpha_bar; zeta0 adds the remaining
    truncation-triangle turning 4*alpha_bar plus delta*2*alpha_bar plus
    the combinatorial angle sum r0 of the surrounding blocks (an input:
    it is constant to second order along the curve, so only its value at
    0 matters); eta'' is the sum of the two apex-2 second derivatives and
    zeta'' follows the delta rule (-eta'' or 0).  `TraceInput` raises the
    DomainError of a delta other than 0 or 1 and of an r0 that puts zeta0
    outside (0, 2*pi).
    """
    cs = solve_complete(sig)
    a = cs.alpha_bar
    # boundary edge length: arccosh(cos(beta)/(1-cos(beta))); the compact
    # edge (return path) is the hexagon-rule composition of three of them
    lam = math.exp(math.acosh(edge_cosh(cs.beta_bar)))
    _, second = cs.varsigma
    # a float, not the numpy scalar that indexing the read-only array gives
    eta_dd = float(second[2] + second[8])
    zeta_dd = -eta_dd if delta == 0 else 0.0
    return TraceInput(lam, 2.0 * a, 4.0 * a + delta * 2.0 * a + r0, eta_dd, zeta_dd, delta)
