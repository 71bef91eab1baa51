"""Dehn fillings of the one-cusped (2, 1) manifold.

A filling imposes p*u + q*v = 2*pi*i on the cusp's log-holonomies.  It
is reached by a continuation path from the complete structure, whose
tangent and curvature there are in closed form; a slope of length
>= sqrt(7) takes the path in one step, one Newton solve from the
second-order start, and a shorter slope is refused.  Below: coefficient
round trips, the refusal below the hyperbolicity threshold at slope
length sqrt(7), the core geodesic shrinking along a ray of fillings,
and the universal limit of v/u forced by the hexagonal cusp.
"""

import math

import numpy as np

from mgk import DomainError, FillingSpec, GKSignature, dehn_coefficients, residuals, solve_filling, uv
from mgk import cusp_invariants as ci
from mgk.hyptrig import slope_length_pair

print(__doc__)
sig = GKSignature(2, 1)

print("slope    length   residual   recovered coefficients      core geodesic length")
for pq in [(3, 1), (5, 1), (7, 2), (19, 11), (16, -1)]:
    x = solve_filling(sig, FillingSpec.from_pairs(1, [pq]))
    res = np.max(np.abs(residuals(sig, x)))
    p, q = dehn_coefficients(x, 0)
    cl = ci.complex_length(x, 0, pq)
    print(
        "%-8s %.5f  %8.1e  (%.12f, %.12f)  %.9f"
        % ("%d/%d" % pq, slope_length_pair(*pq), res, p, q, cl.real)
    )

print()
print("Below the threshold the filled manifold is not hyperbolic; the")
print("solver refuses the slope rather than report nonsense:")
try:
    solve_filling(sig, FillingSpec.from_pairs(1, [(2.0, 1.0)]))
except DomainError as exc:
    print("  2/1 (length sqrt(3)): %s" % exc)

print()
print("Along the ray (n, 0) the structure converges back to the complete")
print("one and v/u approaches the hexagonal modulus -1/2 + i sqrt(3)/2:")
omega = complex(-0.5, math.sqrt(3) / 2)
for n in (10, 20, 40, 80):
    x = solve_filling(sig, FillingSpec.from_pairs(1, [(float(n), 0.0)]))
    u, v = uv(x, 0)
    print("  n=%-3d |u| = %.5f   v/u = %.6f%+.6fi   error %.2e"
          % (n, abs(u), (v / u).real, (v / u).imag, abs(v / u - omega)))
