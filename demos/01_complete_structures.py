"""The complete hyperbolic structure of each (g, k) manifold.

Every manifold in the family carries exactly one complete finite-volume
structure, and it is maximally symmetric: the two tetrahedra at each
cusp are isometric with equilateral cusp cross-sections.  The whole
structure is pinned by two angles (alpha_bar, beta_bar) solving

    cos(beta) = (2 cos^2(alpha) + 1) / 3      (edge-length matching)
    6 (g-k) beta + 6 k alpha = 2 pi           (angle sum at the compact edge)

The first is sin(alpha) = sqrt(3) sin(beta/2), so the solver is a Newton
loop on the one rising, convex equation left in beta.

This script certifies the solution for a few signatures and prints the
invariant panel that every filling of the manifold will inherit.
"""

import math

import numpy as np

from mgk import GKSignature, residuals, solve_complete
from mgk import cusp_invariants as ci

print(__doc__)

print("g k   alpha_bar          beta_bar           residual   return path  H1 rank  genus")
for g, k in [(2, 1), (3, 1), (3, 2), (4, 3), (5, 3), (7, 2)]:
    sig = GKSignature(g, k)
    sol = solve_complete(sig)
    res = np.max(np.abs(residuals(sig, sol.x0)))
    rp = ci.return_path_length(sol.x0)
    print(
        "%d %d   %.15f  %.15f  %8.1e   %.9f  %d        %d"
        % (g, k, sol.alpha_bar, sol.beta_bar, res, rp,
           ci.homology_rank(sig, 0), ci.heegaard_genus(sig))
    )

print()
print("The defining inequalities alpha < beta < 2 alpha <= pi/3 hold strictly:")
sol = solve_complete(GKSignature(2, 1))
print(
    "  (2,1): %.6f < %.6f < %.6f <= %.6f"
    % (sol.alpha_bar, sol.beta_bar, 2 * sol.alpha_bar, math.pi / 3)
)

print()
print("Every cusp cross-section of the complete structure is the regular")
print("hexagonal torus; its canonical modulus:")
tau = ci.cusp_modulus(sol.x0, 0)
print("  tau = %.15f + %.15fi  (exp(i pi/3))" % (tau.real, tau.imag))
