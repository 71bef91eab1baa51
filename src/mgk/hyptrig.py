"""The slope model, in the standard library alone: slopes (p, q) on the
hexagonal cusp torus, of length sqrt(p^2 + q^2 - p*q), their "p/q"
syntax and sign form, and the per-cusp `FillingSpec` with its sqrt(7)
gate; and the errors of every module: `DomainError`, the input error,
and `ConvergenceError`, the solver's numerical failure, which live here
so that the command line can name them without loading numpy."""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

# float and int first: the check against the ABC alone is four times slower
_REAL = (float, int, numbers.Real)


class DomainError(ValueError):
    """Input outside the geometric domain: a bad signature, angles outside
    (0, pi), a slope below the hyperbolicity threshold, a malformed entry."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested residual norm, or a
    filling's continuation could not reach s = 1, in which case the message
    names the signature and the canonical slopes.  `residual` is the
    residual sup-norm at the point where it stopped, or None where no such
    point is known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def slope_length_pair(p: float, q: float) -> float:
    """Euclidean length of p*mu + q*lambda on the hexagonal torus."""
    return math.sqrt(p * p + q * q - p * q)


def parse_slope(text: str) -> Tuple[int, int]:
    """The coprime integers (p, q), of either sign, of a "p/q" entry: the
    slope syntax of `fill`, `similar` and `commensurable`."""
    try:
        ps, qs = text.split("/", 1)
        p, q = int(ps), int(qs)
    except ValueError:
        raise DomainError("cannot parse slope %r (want p/q)" % text) from None
    if math.gcd(p, q) != 1:
        raise DomainError("slope %d/%d is not a pair of coprime integers" % (p, q))
    return p, q


def sign_form(p, q):
    """The one of +-(p, q) with p > 0, or p = 0 and q > 0; both signs name
    the same unoriented slope."""
    return (-p, -q) if p < 0 or (p == 0 and q < 0) else (p, q)


def slope_text(pq) -> str:
    """A cusp's entry as "p/q", exact so that it names the slope solved, or "inf"."""
    return "inf" if pq is None else "/".join("%d" % x if x == int(x) else repr(x) for x in pq)


def _is_pair(pq) -> bool:
    try:
        p, q = pq
    except (TypeError, ValueError):
        return False
    return isinstance(p, _REAL) and isinstance(q, _REAL)


@dataclass(frozen=True)
class FillingSpec:
    """Per-cusp filling targets: None leaves the cusp complete, a real
    pair (p, q) != (0, 0) imposes p*u + q*v = 2*pi*i.

    Integer coprime pairs are the genuine Dehn fillings; the solver also
    accepts real pairs (the coefficient map is real-valued), which is
    what coefficient-ray studies use, but like every pair only from
    length sqrt(7) up (`is_hyperbolic`).
    `parse`, the user-facing syntax, takes "p/q" entries (`parse_slope`)
    or "inf".  It builds through `from_pairs`, the one place that turns
    coefficients into floats; an entry that is not None or a pair of two
    real numbers, and a pair without a finite length, is an error.
    """

    pairs: tuple

    def __post_init__(self):
        for pq in self.pairs:
            if pq is None:
                continue
            if not _is_pair(pq):
                raise DomainError("cusp entry %r is not a pair of real numbers" % (pq,))
            p, q = pq
            if p == 0 and q == 0:
                raise DomainError("filling coefficient (0, 0) is not a slope")
            # a NaN length would pass every length gate, as nan < x is False;
            # the length of an integer pair beyond the float range overflows
            try:
                finite = math.isfinite(slope_length_pair(p, q))
            except OverflowError:
                finite = False
            if not finite:
                raise DomainError("filling coefficient (%r, %r) has no finite slope length" % (p, q))

    @classmethod
    def unfilled(cls, k: int) -> "FillingSpec":
        return cls((None,) * k)

    @classmethod
    def from_pairs(cls, k: int, pairs) -> "FillingSpec":
        try:
            pairs = tuple(tuple(map(float, pq)) if _is_pair(pq) else pq for pq in pairs)
        except OverflowError:
            raise DomainError("a coefficient beyond the float range has no finite slope length") from None
        if len(pairs) != k:
            raise DomainError("expected %d cusp entries, got %d" % (k, len(pairs)))
        return cls(pairs)

    @classmethod
    def parse(cls, text: str, k: int) -> "FillingSpec":
        """Parse "p/q" (see `parse_slope`) or "inf" entries, comma-separated,
        one per cusp."""
        items = [t.strip() for t in text.split(",")]
        if len(items) != k:
            raise DomainError("expected %d comma-separated entries, got %d" % (k, len(items)))
        unfilled = ("inf", "infinity", "-")
        return cls.from_pairs(k, [None if it.lower() in unfilled else parse_slope(it) for it in items])

    def canonicalized(self) -> "FillingSpec":
        """Each pair in `sign_form`.  The sign form of a pair that
        `__post_init__` accepted passes it too, so it is not checked again."""
        spec = object.__new__(FillingSpec)
        object.__setattr__(spec, "pairs", tuple(None if pq is None else sign_form(*pq) for pq in self.pairs))
        return spec

    @property
    def filled_count(self) -> int:
        return sum(1 for pq in self.pairs if pq is not None)

    def min_filled_length(self) -> Optional[float]:
        return min((slope_length_pair(*pq) for pq in self.pairs if pq is not None), default=None)

    def is_hyperbolic(self) -> bool:
        """The sqrt(7) gate: every filled slope has length at least
        sqrt(7) - 1e-12, so the filled manifold is hyperbolic.  Exact on
        integer pairs, whose squared lengths are integers."""
        lmin = self.min_filled_length()
        return lmin is None or lmin >= math.sqrt(7.0) - 1e-12
