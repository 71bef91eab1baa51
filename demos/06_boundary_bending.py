"""The geodesic boundary is NOT isolated from the cusps.

Along the distinguished deformation curve the trace of a chosen boundary
loop's holonomy is stationary to first order (the boundary shape's
differential vanishes at the complete structure) but moves at second
order, for both values of the combinatorial bit delta and across the
whole admissible range of the surrounding angle sum r0.  Infinitely many
fillings therefore induce pairwise non-isometric boundary surfaces.
"""

import math

import numpy as np

from mgk import GKSignature
from mgk.boundary_trace import (
    stima_inequality,
    trace_gamma,
    trace_second_derivative,
    varsigma_trace_data,
)

print(__doc__)
sig = GKSignature(2, 1)

data = varsigma_trace_data(sig, 0, 1.0)
print("loop data at the complete structure (delta=0, r0=1):")
print("  lambda0 = %.9f, eta0 = %.9f, zeta0 = %.9f" % (data.lambda0, data.eta0, data.zeta0))
print("  eta'' = %.9f, zeta'' = %.9f" % (data.eta_dd, data.zeta_dd))


def trace_along_curve(d, t):
    return trace_gamma(
        d.lambda0, d.eta0 + 0.5 * d.eta_dd * t * t, d.zeta0 + 0.5 * d.zeta_dd * t * t
    )


h = 1e-4
fd1 = (trace_along_curve(data, h) - trace_along_curve(data, -h)) / (2 * h)
print("  first derivative of the trace (finite differences): %.2e" % fd1)
print("  second derivative, closed form: %.9f" % trace_second_derivative(data))
# on the delta = 0 branch zeta'' = -eta'', and the two terms fold into one
lpl = data.lambda0 + 1.0 / data.lambda0
shortcut = 0.5 * data.eta_dd * (lpl - 2.0) * math.sin((data.zeta0 - data.eta0) / 2.0)
print("  second derivative, delta=0 shortcut: %.9f" % shortcut)

print()
print("scan of the admissible r0 range, both delta branches:")
print("  delta  r0 range       min |tr''|    all positive estimate?")
for delta in (0, 1):
    grid = np.linspace(0.1, 2.8, 20)
    vals, ok = [], True
    for r0 in grid:
        d = varsigma_trace_data(sig, delta, float(r0))
        vals.append(abs(trace_second_derivative(d)))
        ok = ok and stima_inequality(d.lambda0, d.eta0, d.zeta0)
    print("  %d      [0.1, 2.8]     %.6f      %s" % (delta, min(vals), ok))

print()
print("The trace never stalls at second order, so the boundary genuinely bends.")
