"""Slope combinatorics behind similar fillings.

Slopes on a hexagonal cusp fall into orbits of the order-12 dihedral
isometry group: three short slopes of length 1, three of length sqrt(3),
and six for every longer length.  Equivalent slope sets produce
geometrically similar fillings; equal length alone does not imply
equivalence (the classical sqrt(273) pair).  The number of slope sets
equivalent to h identical slopes on k tori is (k! 3^h)/(h! (k-h)!).
"""

import math

from mgk import FillingSpec, GKSignature, solve_filling
from mgk import cusp_invariants as ci
from mgk.slopes_symmetry import (
    Slope,
    classify_slopes,
    enumerate_equivalent_sets,
    slope_sets_equivalent,
)

print(__doc__)

print("orbit table up to squared length 21:")
for lsq, orbits in classify_slopes(21):
    for orb in orbits:
        reps = "  ".join("%d/%d" % (s.p, s.q) for s in orb)
        print("  L = %-7.4f size %d:  %s" % (math.sqrt(lsq), len(orb), reps))

print()
a = (Slope.of(19, 11),)
b = (Slope.of(16, -1),)
print("19/11 and 16/-1 both have length sqrt(273) = %.6f" % math.sqrt(273))
print("equivalent (rotations only)?        %s" % (slope_sets_equivalent(a, b) is not None))
print("equivalent (reflections allowed)?   %s"
      % (slope_sets_equivalent(a, b, orientation_preserving=False) is not None))

sig = GKSignature(2, 1)
x1 = solve_filling(sig, FillingSpec.from_pairs(1, [(19.0, 11.0)]))
x2 = solve_filling(sig, FillingSpec.from_pairs(1, [(8.0, 19.0)]))   # rotated slope
x3 = solve_filling(sig, FillingSpec.from_pairs(1, [(16.0, -1.0)]))
print()
print("return-path lengths of the fillings:")
print("  19/11:          %.15f" % ci.return_path_length(x1))
print("  8/19 (rotated): %.15f   (same orbit: equal)" % ci.return_path_length(x2))
print("  16/-1:          %.15f   (inequivalent: close, not equal)" % ci.return_path_length(x3))

print()
same = (Slope.of(3, 1), Slope.of(3, 1), None)
distinct = (Slope.of(3, 1), Slope.of(5, 1), None)
print("k=3, h=2 equivalent-set counts:")
print("  same slope class on both filled tori:  %d  (= 3! * 3^2 / (2! 1!))"
      % len(enumerate_equivalent_sets(same)))
print("  two inequivalent slopes:               %d  (lower bound 27 doubled)"
      % len(enumerate_equivalent_sets(distinct)))
