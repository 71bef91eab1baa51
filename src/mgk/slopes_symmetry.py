"""Exact integer layer: slopes on the hexagonal torus, the dihedral
isometry group action, and slope-set equivalence.

A slope is the class +-(p, q) of a primitive vector in the marked basis
(mu, lambda) of a cusp torus, realized as p + q*exp(2*pi*i/3) in the
hexagonal lattice, so its length is sqrt(p^2 + q^2 - p*q).  The isometry
group of the torus is dihedral of order 12, generated by the rotation
r (angle pi/3) and the reflection s fixing the mu-axis; on coefficient
pairs these act by the integer matrices

    r: (p, q) -> (p - q, p),      s: (p, q) -> (p - q, -q).

Slope sets on k marked tori are compared under the wreath product of S_k
with a local factor L per torus: the rotations, acting on unoriented
slopes through their order-3 quotient, or all of D6 (six classes) when
reflections are allowed.  An element permutes the tori and moves each
slope within its L-orbit independently, so two sets are equivalent
exactly when their sorted lists of per-torus L-orbits (an empty torus its
own class, orbits ordered by their least slopes) agree; pairing the two
sorted orders gives the permutation of a witness.  A torus is keyed by
the least sign-form image of its slope under L, computed on integer pairs
(`_images`): orbits are disjoint, so that image names the orbit and sorts
it where the whole orbit would sort.  `d6_act` is the single-element
action on a `Slope`; the orbit and search routines do not build a `Slope`
for each image.

It needs only the standard library; the action of these isometries on
the deformation variety is in `commensurability_xk`.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .hyptrig import DomainError, FillingSpec, sign_form


# ---------------------------------------------------------------------------
# slopes


@dataclass(frozen=True, order=True)
class Slope:
    """Canonicalized primitive class +-(p, q): p > 0, or p = 0 and q = 1."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise DomainError("(%d, %d) is not primitive" % (self.p, self.q))
        if not (self.p > 0 or (self.p == 0 and self.q > 0)):
            raise DomainError("(%d, %d) is not in canonical sign form" % (self.p, self.q))

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        return cls(*sign_form(p, q))

    @classmethod
    def _of_coprime(cls, p: int, q: int) -> "Slope":
        """`of` for p and q known to be coprime, as `hyptrig.parse_slope`
        gives them, without checking them again."""
        s = object.__new__(cls)
        p, q = sign_form(p, q)
        s.__dict__.update(p=p, q=q)
        return s

    @property
    def length_sq(self) -> int:
        return self.p * self.p + self.q * self.q - self.p * self.q


# ---------------------------------------------------------------------------
# the dihedral group of order 12

@dataclass(frozen=True)
class D6Element:
    """r^rot s^refl in the dihedral group of order 12 (s applied first)."""

    rot: int
    refl: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rot", self.rot % 6)

    @classmethod
    def identity(cls) -> "D6Element":
        return cls(0, False)


def d6_act(e: D6Element, s: Slope) -> Slope:
    # r^3 = -1 fixes every unoriented slope
    return Slope(*_images(s, e.refl)[e.rot % 3 + 3 * e.refl])


# the largest squared length `classify_slopes` takes: at 10**6 it scans
# about 2.7e6 pairs in about 9 s and holds about 0.5 GB (README)
MAX_LEN_SQ = 10**6

# the distinct actions on unoriented slopes, without and with reflections
_ROTATIONS = tuple(D6Element(m) for m in range(3))
_ISOMETRIES = _ROTATIONS + tuple(D6Element(m, True) for m in range(3))


def _images(s: Slope, refl: bool) -> List[Tuple[int, int]]:
    """The sign-form (p, q) images of s under `_ROTATIONS`, then under the
    three reflections when `refl` is set: those of the elements of
    `_ROTATIONS` or `_ISOMETRIES`, in order, on integer pairs (r^m s is
    s: (p, q) -> (p - q, -q), then m times r: (p, q) -> (p - q, p)).
    Each image takes its sign from one test on p, q or d = p - q: s is
    primitive and in sign form, so p = 0 only at (0, 1), q = 0 only at
    (1, 0) and d = 0 only at (1, 1), which settles the sign of an image
    whose first entry is 0."""
    p, q = s.p, s.q
    d = p - q
    pairs = [(p, q), (d, p) if d >= 0 else (-d, -p), (-q, d) if q <= 0 else (q, -d)]
    if refl:
        pairs += [(d, -q) if d > 0 else (-d, q), (p, d) if p > 0 else (-p, -d), (q, p) if q >= 0 else (-q, -p)]
    return pairs


def _orbit(s: Optional[Slope]) -> Tuple[Slope, ...]:
    """Sorted orbit of a slope under the rotations; () for an empty torus."""
    return () if s is None else tuple(Slope(p, q) for p, q in sorted(set(_images(s, False))))


def classify_slopes(max_len_sq: int):
    """All slopes with squared length <= max_len_sq, grouped into
    dihedral orbits.  Returns a list of (length_sq, orbits) pairs in
    increasing length order, each orbit a sorted tuple of slopes.
    A bound above `MAX_LEN_SQ` is refused as too large for memory."""
    if max_len_sq < 1:
        raise DomainError("max_len_sq must be >= 1")
    if max_len_sq > MAX_LEN_SQ:
        raise DomainError("request too large for memory")
    bound = int(math.isqrt(4 * max_len_sq // 3)) + 2
    slopes = {}
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p == 0 and q != 1) or math.gcd(p, abs(q)) != 1:
                continue
            if p * p + q * q - p * q <= max_len_sq:
                slopes[p, q] = Slope(p, q)
    # an orbit keeps the length of its slopes, so all its images are in `slopes`
    by_len = {}
    seen = set()
    for pq in sorted(slopes):
        if pq in seen:
            continue
        s = slopes[pq]
        orbit = sorted(set(_images(s, True)))
        seen.update(orbit)
        by_len.setdefault(s.length_sq, []).append(tuple(slopes[t] for t in orbit))
    return [(lsq, tuple(sorted(orbs))) for lsq, orbs in sorted(by_len.items())]


def hyperbolic_filling_check(spec: FillingSpec) -> bool:
    """True iff the filled manifold is hyperbolic: `FillingSpec.is_hyperbolic`,
    the sqrt(7) gate that `solve_filling` applies."""
    return spec.is_hyperbolic()


# ---------------------------------------------------------------------------
# slope sets on k marked tori

SlopeSet = Tuple[Optional[Slope], ...]


def make_slope_set(k: int, entries) -> SlopeSet:
    """Slope set from {torus_index (0-based): (p, q)} or a k-sequence."""
    if isinstance(entries, dict):
        for i in entries:
            if not 0 <= i < k:
                raise DomainError("torus index %d out of range" % i)
        entries = [entries.get(i) for i in range(k)]
    entries = list(entries)
    if len(entries) != k:
        raise DomainError("expected %d entries" % k)
    return tuple(e if e is None or isinstance(e, Slope) else Slope.of(*e) for e in entries)


@dataclass(frozen=True)
class SlopeSetIsometry:
    """perm[i] is the image torus of torus i; local[i] acts on torus i
    before the relabelling."""

    perm: Tuple[int, ...]
    local: Tuple[D6Element, ...]

    @property
    def orientation_preserving(self) -> bool:
        return not any(e.refl for e in self.local)

    def apply(self, sset: SlopeSet) -> SlopeSet:
        k = len(sset)
        out = [None] * k
        for i, s in enumerate(sset):
            if s is not None:
                out[self.perm[i]] = d6_act(self.local[i], s)
        return tuple(out)


def slope_sets_equivalent(
    a: SlopeSet, b: SlopeSet, orientation_preserving: bool = True
) -> Optional[SlopeSetIsometry]:
    """A witness of the marked-torus isometry group taking `a` onto `b`,
    or None if there is none; exact, in O(k log k) (module docstring).
    Each torus is keyed by the least sign-form image of its slope,
    computed on integer pairs by `_images`, and its local element is the
    first of the group, in `d6_act` order, that carries it onto its
    target."""
    k = len(a)
    if len(b) != k:
        raise DomainError("slope sets live on different numbers of tori")
    refl = not orientation_preserving
    group = _ISOMETRIES if refl else _ROTATIONS
    images = [None if s is None else _images(s, refl) for s in a]
    ka = [() if im is None else min(im) for im in images]
    kb = [() if s is None else min(_images(s, refl)) for s in b]
    order_a = sorted(range(k), key=ka.__getitem__)
    order_b = sorted(range(k), key=kb.__getitem__)
    if [ka[i] for i in order_a] != [kb[j] for j in order_b]:
        return None
    perm = [0] * k
    for i, j in zip(order_a, order_b):
        perm[i] = j
    # the first element of `group` carrying each slope onto its target; an
    # empty torus takes the identity
    local = tuple([group[0] if im is None else group[im.index((b[j].p, b[j].q))] for im, j in zip(images, perm)])
    return SlopeSetIsometry(tuple(perm), local)


def enumerate_equivalent_sets(a: SlopeSet):
    """Full orbit of a slope set under the orientation-preserving group:
    every distinct arrangement of its per-torus rotation orbits over the
    tori, times every choice of a slope in each orbit; sorted for
    reproducibility."""
    level = [((), Counter(_orbit(s) for s in a))]
    for _ in a:
        # extend each prefix by a slope of each orbit it has not used up
        level = [
            (prefix + (s,), left - Counter([orbit]))
            for prefix, left in level
            for orbit in left
            for s in orbit or (None,)
        ]
    return sorted(
        (prefix for prefix, _ in level),
        key=lambda ss: tuple((s.p, s.q) if s else (0, 0) for s in ss),
    )
