"""The deformation variety of the (g, k) family.

A point is a vector x in R^{12k+1} of dihedral angles, laid out as

    alpha_l^j -> x[6*l + j]        l = 0..2k-1 (tetrahedron), j = 0..2 (apex)
    gamma_l^j -> x[6*l + 3 + j]
    beta      -> x[12*k]

where tetrahedra 2c and 2c+1 are the pair incident to cusp c, alpha sits
on the compact-face edges, gamma on the edges at the ideal vertex, and
beta is the common angle of the g-k compact regular tetrahedra.

The structure equations split into 10k+1 residuals:

    6k  boundary-edge length matching (all compact hexagons regular and
        isometric): per (l, c), the truncation-triangle side built from
        (gamma_l^c, alpha_l^{c+1}, alpha_l^{c+2}) must have the cosh
        cos(beta)/(1-cos(beta)) of the compact tetrahedra's sides;
    2k  ideal-vertex sums gamma_l^0+gamma_l^1+gamma_l^2 - pi;
    2k  sine-product matching across the exceptional hexagons of each
        cusp pair (Pi^0 - Pi^1, Pi^1 - Pi^2 with
        Pi^j = sin a_2c^j sin a_2c+1^j sin g_2c^j sin g_2c+1^j);
     1  total angle 2pi along the compact edge.

Their common zero set is smooth of dimension 2k near the symmetric
complete solution; completeness or filling conditions on the per-cusp
log-holonomies (u, v) cut it down to isolated points, which a damped
Newton iteration with coefficient continuation locates.

Newton works on the square system: the structure rows plus two cusp
rows per cusp (Re, Im of p*u + q*v - 2*pi*i filled, of u complete).
Ordered by cusp it is block-arrow.  Block c takes the cusp's 12
coordinates x[12c:12c+12] (alpha, gamma of tetrahedron 2c, then 2c+1)
and 12 rows:

    0-5    length rows of tetrahedra 2c (0-2) and 2c+1 (3-5), by apex;
    6-7    ideal-vertex sums of 2c and 2c+1;
    8-9    sine-product rows Pi^0 - Pi^1, Pi^1 - Pi^2;
    10-11  the two cusp rows.

The blocks couple only through beta: a border column d/dbeta, nonzero
only on the length rows, and a border row, the total angle (ones on the
alphas, corner 6(g-k)).  A step is one batched solve of the k 12x12
blocks with two right-hand sides (the residual and the border column)
and a scalar Schur complement for beta, O(k) work instead of the O(k^3)
of the dense (12k+1)^2 system.  `jacobian` scatters the same entries
into the dense (10k+1) x (12k+1) public form.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .hyptrig import DomainError

SQRT7 = math.sqrt(7.0)

# working margin keeping iterates strictly inside (0, pi)
_CLIP = 1e-8
_MAX_ITER = 25
# residual sup-norm a filling is solved to
_FILL_TOL = 1e-10
# the first continuation step scales the shortest filled slope to this length
_L_SAFE = 20.0
# |u| below which a cusp counts as complete (unfilled)
COMPLETE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested residual norm."""


class ContinuationError(ConvergenceError):
    """The continuation could not reach t = 1; `last_good_t` is the
    smallest scale multiplier at which a solution was still found, or
    None when Newton already failed at the first multiplier."""

    def __init__(self, message, last_good_t):
        super().__init__(message)
        self.last_good_t = last_good_t


@dataclass(frozen=True)
class GKSignature:
    g: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.g, int) and isinstance(self.k, int)):
            raise DomainError("g, k must be integers")
        if not self.g > self.k >= 1:
            raise DomainError("signature requires g > k >= 1")

    @property
    def n_coords(self) -> int:
        return 12 * self.k + 1

    @property
    def n_residuals(self) -> int:
        return 10 * self.k + 1


def alpha_index(l: int, j: int) -> int:
    return 6 * l + j


def gamma_index(l: int, j: int) -> int:
    return 6 * l + 3 + j


def beta_index(k: int) -> int:
    return 12 * k


def cusps_of(x: np.ndarray) -> int:
    k, rem = divmod(len(x) - 1, 12)
    if rem != 0 or k < 1:
        raise DomainError("coordinate vector length %d is not 12k+1" % len(x))
    return k


def check_coords(sig: GKSignature, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sig.n_coords,):
        raise DomainError(
            "expected %d coordinates, got %r" % (sig.n_coords, x.shape)
        )
    if not (0.0 < x.min() and x.max() < math.pi):
        raise DomainError("coordinates must lie in (0, pi)")
    return x


# ---------------------------------------------------------------------------
# complete solution


@dataclass(frozen=True)
class CompleteSolution:
    alpha_bar: float
    beta_bar: float
    x0: np.ndarray


def _beta_of_alpha(sig: GKSignature, a: float) -> float:
    return (2.0 * math.pi - 6.0 * sig.k * a) / (6.0 * (sig.g - sig.k))


def solve_complete(sig: GKSignature) -> CompleteSolution:
    """The unique symmetric solution of the structure plus completeness
    equations: all gamma = pi/3, all alpha equal, reduced to

        cos(beta) = (2 cos^2(alpha) + 1)/3,
        6 (g-k) beta + 6 k alpha = 2 pi.

    Newton solves the length residual side(a) - edge_cosh(beta(a)), with
    side(a) = (cos^2 a + 1/2)/sin^2 a and beta(a) from the angle sum, using
    its analytic derivative.  That residual falls strictly from +inf on
    (0, pi/(3g)], so a bisection bracket kept alongside catches every step
    that leaves it and the solve cannot fail.  beta(a) carries the rounding
    of 2pi - 6ka amplified k/(g-k) times, so one final Newton step on the
    2x2 system (length row, angle-sum row) in (alpha, beta) jointly takes
    that error out.
    """
    k, m = sig.k, sig.g - sig.k

    def length(a, b):
        # the length row at the symmetric point and its d/dalpha, d/dbeta
        s, c = math.sin(a), math.cos(a)
        r = (c * c + 0.5) / (s * s) - edge_cosh(b)
        return r, -3.0 * c / s**3, math.sin(b) / _versine(b) ** 2

    # small-angle start: 3/(2 a^2) = 2/b^2 gives b = 2a/sqrt(3), inside the bracket
    lo, hi = 0.0, math.pi / (3.0 * sig.g)
    a = 2.0 * math.pi / (6.0 * k + 12.0 * m / math.sqrt(3.0))
    for _ in range(100):
        r, da, db = length(a, _beta_of_alpha(sig, a))
        if r > 0.0:
            lo = a
        else:
            hi = a
        step = r / (da - db * k / m)
        if abs(step) <= 2.0 * np.finfo(float).eps * a:
            break
        a = a - step if lo < a - step < hi else 0.5 * (lo + hi)
    b = _beta_of_alpha(sig, a)
    r, da, db = length(a, b)
    angle = 6.0 * k * a + 6.0 * m * b - 2.0 * math.pi
    det = da * 6.0 * m - db * 6.0 * k
    a, b = a - (6.0 * m * r - db * angle) / det, b - (da * angle - 6.0 * k * r) / det
    x0 = np.append(np.tile([a, a, a] + [math.pi / 3.0] * 3, 2 * k), b)
    sol = CompleteSolution(alpha_bar=a, beta_bar=b, x0=x0)
    res = residuals(sig, x0)
    # the length rows cannot beat the evaluation noise of their own scale
    gate = max(1e-12, 64.0 * np.finfo(float).eps * abs(edge_cosh(b)))
    if np.max(np.abs(res)) > gate:
        raise ConvergenceError("complete solution residual %g" % np.max(np.abs(res)))
    if not (a < b < 2.0 * a <= math.pi / 3.0 + 1e-15):
        raise ConvergenceError("complete solution violates the angle inequalities")
    return sol


# ---------------------------------------------------------------------------
# residual system: one vectorised kernel over the cusp blocks of x

# block-local columns: the alphas (the border row), and per length row
# 3t + j those of alpha_t^{j+1}, alpha_t^{j+2} and gamma_t^j
_ALPHA_COLS = np.array([0, 1, 2, 6, 7, 8])
_LENGTH_COLS = np.array(
    [[6 * t + (j + 1) % 3, 6 * t + (j + 2) % 3, 6 * t + 3 + j] for t in (0, 1) for j in range(3)]
).T
# as 0/1 selectors: one broadcast product scatters the three derivatives of
# each length row into the block's 12 columns
_LENGTH_SEL = (_LENGTH_COLS[:, :, None] == np.arange(12)).astype(float)
_LENGTH_MASK = np.repeat([1.0, 0.0], 6)
_SINE_SIGNS = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]).reshape(2, 1, 1, 3)


def _versine(beta: float) -> float:
    # 1 - cos(beta) without the cancellation that costs ~1/beta^2 ulps
    return 2.0 * math.sin(0.5 * beta) ** 2


def edge_cosh(beta: float) -> float:
    """cosh of the edge length of the compact regular tetrahedron with
    dihedral angle beta: cos(beta) / (1 - cos(beta))."""
    return math.cos(beta) / _versine(beta)


def _linear_rows(targets):
    """The block rows that are linear in x or in log sin x, per cusp
    L x_c + S log(sin x_c) - o: the ideal-vertex sums (rows 6, 7) and the
    cusp rows (10, 11).  With gA, gB the gammas of tetrahedra 2c, 2c+1,

        u = log(sin gA^0 sin gB^1 / (sin gA^1 sin gB^0)) + i (gA^2 - gB^2),
        v = log(sin gA^1 sin gB^2 / (sin gA^2 sin gB^1)) + i (gA^0 - gB^0),

    a filled cusp's rows are Re and Im of p u + q v - 2 pi i; a complete
    cusp's are those of u, i.e. (p, q) = (1, 0) without the 2 pi i."""
    k = len(targets)
    filled = np.array([t is not None for t in targets])
    pq = np.array([t if t is not None else (1.0, 0.0) for t in targets], dtype=float)
    p, q = pq[:, :1], pq[:, 1:]
    L, S, o = np.zeros((k, 12, 12)), np.zeros((k, 12, 12)), np.zeros((k, 12))
    L[:, 6, 3:6] = L[:, 7, 9:12] = 1.0
    o[:, 6:8] = math.pi
    S[:, 10, 3:6] = p * [1.0, -1.0, 0.0] + q * [0.0, 1.0, -1.0]
    L[:, 11, 3:6] = p * [0.0, 0.0, 1.0] + q * [1.0, 0.0, 0.0]
    S[:, 10, 9:12], L[:, 11, 9:12] = -S[:, 10, 3:6], -L[:, 11, 3:6]
    o[:, 11] = 2.0 * math.pi * filled
    return L, S, o


def _evaluate(sig: GKSignature, x, rows):
    """Residuals of the square system at x in block order (12 rows per
    cusp, then the total angle; `rows` from `_linear_rows`) and a function
    returning the Newton blocks (A, dbeta) from the same sin/cos pass."""
    x = check_coords(sig, x)
    k = sig.k
    L, S, o = rows
    beta = x[-1]
    xb = x[:-1].reshape(k, 12, 1)
    s, c = np.sin(xb), np.cos(xb)
    # (k, 3, 6): sin/cos of alpha^{j+1}, alpha^{j+2}, gamma^j per length row
    sl, cl = s[:, _LENGTH_COLS, 0], c[:, _LENGTH_COLS, 0]
    den = sl[:, 0] * sl[:, 1]
    prods = s.reshape(k, 2, 2, 3).prod(axis=(1, 2))
    r = np.empty(12 * k + 1)
    R = r[:-1].reshape(k, 12)
    np.subtract((L @ xb + S @ np.log(s))[:, :, 0], o, out=R)
    R[:, :6] = (cl[:, 0] * cl[:, 1] + cl[:, 2]) / den - edge_cosh(beta)
    R[:, 8:10] = prods[:, :2] - prods[:, 1:]
    r[-1] = 6.0 * (sig.g - k) * beta + xb[:, _ALPHA_COLS].sum() - 2.0 * math.pi

    def blocks():
        cot = c / s
        A = L + S * cot.reshape(k, 1, 12)
        q = -1.0 / den
        # d/d alpha^{j+1}, alpha^{j+2}: -(cos a_other + cos a_self cos g) / (den sin a_self)
        d = (cl[:, 1::-1] + cl[:, :2] * cl[:, 2:3]) * (q[:, None] / sl[:, :2])
        dg = (sl[:, 2] * q)[..., None] * _LENGTH_SEL[2]
        A[:, :6] = (d[..., None] * _LENGTH_SEL[:2]).sum(axis=1) + dg
        # d Pi^j / d x = Pi^j cot x over the four angles at apex j
        A.reshape(k, 12, 2, 2, 3)[:, 8:10] = (
            prods.reshape(k, 1, 1, 1, 3) * _SINE_SIGNS * cot.reshape(k, 1, 2, 2, 3)
        )
        return A, math.sin(beta) / _versine(beta) ** 2

    return r, blocks


def _structure_rows(a: np.ndarray, k: int) -> np.ndarray:
    """The 10k+1 structure rows of `a` (rows in block order) as `residuals` orders them."""
    rest = a.shape[1:]
    blocks = a[:-1].reshape((k, 12) + rest)
    parts = [blocks[:, i:j].reshape((-1,) + rest) for i, j in ((0, 6), (6, 8), (8, 10))]
    return np.concatenate(parts + [a[-1:]])


def _dense(sig: GKSignature, A: np.ndarray, dbeta: float) -> np.ndarray:
    """The square (12k+1)^2 Jacobian in block order, blocks and border."""
    k = sig.k
    idx = np.arange(12 * k).reshape(k, 12)
    J = np.zeros((sig.n_coords, sig.n_coords))
    J[idx[:, :, None], idx[:, None, :]] = A
    J[idx[:, :6], -1] = dbeta
    J[-1, idx[:, _ALPHA_COLS]] = 1.0
    J[-1, -1] = 6.0 * (sig.g - k)
    return J


def residuals(sig: GKSignature, x) -> np.ndarray:
    """The 10k+1 structure residuals at x (layout in the module docstring)."""
    r, _ = _evaluate(sig, x, _linear_rows([None] * sig.k))
    return _structure_rows(r, sig.k)


def jacobian(sig: GKSignature, x) -> np.ndarray:
    """Analytic Jacobian of `residuals`: the Newton blocks, scattered dense."""
    _, blocks = _evaluate(sig, x, _linear_rows([None] * sig.k))
    return _structure_rows(_dense(sig, *blocks()), sig.k)


# ---------------------------------------------------------------------------
# log-holonomies and Dehn coefficients


def uv(x, cusp: int) -> Tuple[complex, complex]:
    """Log-dilations (u, v) of the two marked peripheral curves of `cusp`
    (0-based), read off the gamma angles of its tetrahedron pair."""
    k = cusps_of(x)
    if not 0 <= cusp < k:
        raise DomainError("cusp index %d out of range" % cusp)
    lA, lB = 2 * cusp, 2 * cusp + 1
    gA = [x[gamma_index(lA, j)] for j in range(3)]
    gB = [x[gamma_index(lB, j)] for j in range(3)]
    u = complex(
        math.log(math.sin(gA[0]) * math.sin(gB[1]) / (math.sin(gA[1]) * math.sin(gB[0]))),
        gA[2] - gB[2],
    )
    v = complex(
        math.log(math.sin(gA[1]) * math.sin(gB[2]) / (math.sin(gA[2]) * math.sin(gB[1]))),
        gA[0] - gB[0],
    )
    return u, v


def dehn_coefficients(x, cusp: int):
    """The real pair (p, q) with p*u + q*v = 2*pi*i at `cusp`, or None when
    the cusp is complete (u = 0).  Raises if u, v are real-proportional,
    which happens only far from the complete solution."""
    u, v = uv(x, cusp)
    if abs(u) < COMPLETE_TOL:
        return None
    det = u.real * v.imag - u.imag * v.real
    if abs(det) <= 1e-12 * abs(u) * abs(v):
        raise DomainError(
            "u and v are real-proportional at cusp %d; coefficients undefined" % cusp
        )
    two_pi = 2.0 * math.pi
    return (-two_pi * v.real / det, two_pi * u.real / det)


# ---------------------------------------------------------------------------
# filling specifications


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


@dataclass(frozen=True)
class FillingSpec:
    """Per-cusp filling targets: None leaves the cusp complete, a real
    pair (p, q) != (0, 0) imposes p*u + q*v = 2*pi*i.

    Integer coprime pairs are the genuine Dehn fillings; the solver also
    accepts arbitrary real pairs (the coefficient map is real-valued),
    which is what continuation paths and coefficient-ray studies use.
    `parse`, the user-facing syntax, takes "p/q" entries (`parse_slope`)
    or "inf".  It builds through `from_pairs`, the one place that turns
    coefficients into floats; a pair without a finite length is an error.
    """

    pairs: tuple

    def __post_init__(self):
        for pq in self.pairs:
            if pq is None:
                continue
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
            pairs = tuple(None if pq is None else (float(pq[0]), float(pq[1])) for pq in pairs)
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
        """Each pair in `sign_form`."""
        return FillingSpec(tuple(None if pq is None else sign_form(*pq) for pq in self.pairs))

    @property
    def filled_count(self) -> int:
        return sum(1 for pq in self.pairs if pq is not None)

    def min_filled_length(self) -> Optional[float]:
        lengths = [slope_length_pair(*pq) for pq in self.pairs if pq is not None]
        return min(lengths) if lengths else None

    def is_hyperbolic(self) -> bool:
        """The sqrt(7) gate: every filled slope has length at least
        sqrt(7) - 1e-12, so the filled manifold is hyperbolic.  Exact on
        integer pairs, whose squared lengths are integers."""
        lmin = self.min_filled_length()
        return lmin is None or lmin >= SQRT7 - 1e-12


# ---------------------------------------------------------------------------
# Newton solver with coefficient continuation


def _clip(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, _CLIP), math.pi - _CLIP)


def _block_step(sig: GKSignature, r: np.ndarray, A: np.ndarray, dbeta: float) -> np.ndarray:
    """Solve the block-arrow system J step = r: per cusp
    A_c s_c + dbeta e s_beta = r_c (e marks the length rows) and
    sum(alpha steps) + 6(g-k) s_beta = r_total.  One batched solve for
    the two right-hand sides r_c and dbeta e, then the scalar Schur
    complement for s_beta: O(k) work."""
    k = sig.k
    rhs = np.empty((k, 12, 2))
    rhs[:, :, 0] = r[:-1].reshape(k, 12)
    rhs[:, :, 1] = dbeta * _LENGTH_MASK
    y = np.linalg.solve(A, rhs)
    ya = y[:, _ALPHA_COLS].sum(axis=(0, 1))
    schur = 6.0 * (sig.g - k) - ya[1]
    if schur == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    sb = (r[-1] - ya[0]) / schur
    step = np.empty_like(r)
    step[:-1] = (y[:, :, 0] - sb * y[:, :, 1]).ravel()
    step[-1] = sb
    return step


def _newton(sig: GKSignature, x0: np.ndarray, rows, tol: float):
    """Damped Newton with block-arrow steps on the square system whose
    linear block rows are `rows` (L, S, o, as for `_evaluate`), until the
    residual sup-norm is below `tol`.  Returns the solution and the
    function giving its Newton blocks (A, dbeta) from the same evaluation.
    Clips iterates into the open angle box.  The line search backtracks
    on the sup-norm with each length row divided by |edge_cosh(beta)| at
    x0: those rows have that scale, about 4e4 at g = 150, and undivided
    they drown the others, so that the search halves steps that are good
    and Newton crawls."""
    x = _clip(np.array(x0, dtype=float))
    r, blocks = _evaluate(sig, x, rows)
    weight = np.ones_like(r)
    weight[:-1].reshape(sig.k, 12)[:, :6] = 1.0 / max(1.0, abs(edge_cosh(x[-1])))
    merit = np.abs(weight * r).max()
    # weight <= 1, so merit < tol is necessary for convergence and the
    # sup-norm need only be taken then
    for _ in range(_MAX_ITER):
        if merit < tol and np.abs(r).max() < tol:
            return x, blocks
        try:
            step = _block_step(sig, r, *blocks())
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian: %s" % exc) from None
        lam = 1.0
        for _ in range(30):
            xn = _clip(x - lam * step)
            rn, bn = _evaluate(sig, xn, rows)
            mn = np.abs(weight * rn).max()
            if mn < merit or (mn < tol and np.abs(rn).max() < tol):
                break
            lam *= 0.5
        else:
            raise ConvergenceError("line search stalled at residual %g" % np.abs(r).max())
        x, r, blocks, merit = xn, rn, bn, mn
    norm = np.abs(r).max()
    if norm < tol:
        return x, blocks
    raise ConvergenceError("no convergence: residual %g after %d iterations" % (norm, _MAX_ITER))


def _hermite(s_next: float, s: float, x: np.ndarray, dx: np.ndarray, prev) -> np.ndarray:
    """The path's value at s_next, extrapolated from the point (s, x) with
    slope dx: the cubic Hermite through it and prev = (s0, x0, dx0), or the
    Euler step when prev is None."""
    guess = x + (s_next - s) * dx
    if prev is not None:
        s0, x0, dx0 = prev
        h = s - s0
        z = (s_next - s) / h
        guess += z * z * ((3.0 + 2.0 * z) * (x0 - x + h * dx) - (1.0 + z) * h * (dx - dx0))
    return guess


def solve_filling(sig: GKSignature, spec: FillingSpec, *, check_length: bool = True) -> np.ndarray:
    """Solve the square 12k+1 system: structure residuals plus, per cusp,
    p*u + q*v = 2*pi*i (filled) or u = 0 (complete), to a residual
    sup-norm below 1e-10.  Declared range: g <= 200 and k <= 64, where
    every signature with any slope of length >= sqrt(7) is meant to solve.

    Filled coefficients are continued from the far-filled regime: the
    scaled targets (t*p, t*q) are solved for t stepping geometrically
    down from T0 = max(1, 20 / min slope length) to 1 by the ratio 3,
    halved towards 1 on each Newton failure.  In s = 1/t the filled cusp
    rows are t G(x) - (0, 2 pi), so at a solution the tangent dx/ds solves
    J dx/ds = 2 pi t on row 11 of each filled cusp and 0 elsewhere: one
    more block step, with the blocks of Newton's last iterate.  Each
    Newton starts at the cubic Hermite through the last two points of
    the path and their tangents, the first at the Euler step from T0.
    Fails loudly (ContinuationError) if the path cannot reach t = 1.
    With `check_length`, a slope shorter than sqrt(7) is a DomainError.
    """
    if len(spec.pairs) != sig.k:
        raise DomainError("spec has %d cusps, signature has %d" % (len(spec.pairs), sig.k))
    spec = spec.canonicalized()
    lmin = spec.min_filled_length()
    if check_length and not spec.is_hyperbolic():
        raise DomainError(
            "slope of length %.6g below the hyperbolicity threshold sqrt(7)" % lmin
        )
    complete = solve_complete(sig)
    if lmin is None:
        return complete.x0.copy()

    # the rows at t = 1; the multiplier t scales rows 10-11 of the filled
    # cusps, and t ds_rhs is the tangent's right-hand side
    filled = np.array([pq is not None for pq in spec.pairs])
    L, S, o = _linear_rows(spec.pairs)
    scaled = np.zeros((sig.k, 12, 1), dtype=bool)
    scaled[filled, 10:] = True
    ds_rhs = np.zeros(sig.n_coords)
    ds_rhs[:-1].reshape(sig.k, 12)[filled, 11] = 2.0 * math.pi

    def rows_at(t):
        f = np.where(scaled, t, 1.0)
        return L * f, S * f, o

    t0 = max(1.0, _L_SAFE / lmin)
    try:
        x, blocks = _newton(sig, complete.x0, rows_at(t0), _FILL_TOL)
    except ConvergenceError as exc:
        raise ContinuationError("first step at t=%g failed: %s" % (t0, exc), None) from None
    t_good, dx, prev = t0, None, None
    rho = 3.0
    while t_good > 1.0:
        s_good = 1.0 / t_good
        if dx is None:
            try:
                dx = _block_step(sig, t_good * ds_rhs, *blocks())
            except np.linalg.LinAlgError as exc:
                raise ContinuationError("singular tangent: %s" % exc, t_good) from None
        t_next = max(1.0, t_good / rho)
        guess = _hermite(1.0 / t_next, s_good, x, dx, prev)
        try:
            x_next, blocks = _newton(sig, guess, rows_at(t_next), _FILL_TOL)
        except ConvergenceError:
            rho = 1.0 + (rho - 1.0) / 2.0
            if t_good - max(1.0, t_good / rho) < 1e-4:
                raise ContinuationError(
                    "continuation step underflow at t=%g" % t_good, t_good
                ) from None
            continue
        prev, dx = (s_good, x, dx), None
        x, t_good = x_next, t_next
    return x


# ---------------------------------------------------------------------------
# tangent space and the boundary-bending curve


def tangent_basis(sig: GKSignature) -> np.ndarray:
    """Closed-form basis (2 vectors per cusp) of the tangent space of the
    variety at the complete solution: per cusp block,

        sqrt(3) cos(a) x_i = sin(a) x_{i+3}   (i = 1, 2, 3),
        x_i + x_{i+6} = 0                     (i = 1..6),
        x_1 + x_2 + x_3 = 0,

    and last coordinate zero."""
    cs = solve_complete(sig)
    t = math.sqrt(3.0) * math.cos(cs.alpha_bar) / math.sin(cs.alpha_bar)
    basis = np.zeros((2 * sig.k, sig.n_coords))
    for c in range(sig.k):
        for m, (x1, x2) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            x3 = -x1 - x2
            block = [x1, x2, x3, t * x1, t * x2, t * x3,
                     -x1, -x2, -x3, -t * x1, -t * x2, -t * x3]
            basis[2 * c + m, 12 * c:12 * c + 12] = block
    return basis


def varsigma_derivatives(sig: GKSignature) -> Tuple[np.ndarray, np.ndarray]:
    """First and second derivative vectors at t=0 of the distinguished
    curve through the complete solution (normalization: the second
    derivatives of coordinates 0 and 6 agree).  Both are supported on the
    first cusp block; the second derivative of the last coordinate and of
    every other block vanishes."""
    cs = solve_complete(sig)
    s, c = math.sin(cs.alpha_bar), math.cos(cs.alpha_bar)
    r3 = math.sqrt(3.0)
    first = np.zeros(sig.n_coords)
    first[0:12] = [2 * s, -s, -s, 2 * r3 * c, -r3 * c, -r3 * c,
                   -2 * s, s, s, -2 * r3 * c, r3 * c, r3 * c]
    second = np.zeros(sig.n_coords)
    motif = [8 * c * s, -4 * c * s, -4 * c * s, 2 * r3, -r3, -r3]
    second[0:6] = motif
    second[6:12] = motif
    return first, second


def varsigma_point(sig: GKSignature, t: float) -> np.ndarray:
    """Solve for the point at parameter t on the constrained curve

        { x_2 = x_3,  per-cusp blocks 2..k complete } on the variety,

    parameterized by x_1 - x_7 = 4 sin(alpha_bar) t, which pins the
    reparameterization freedom so that the second derivative satisfies
    the x_1/x_7 normalization of `varsigma_derivatives`.  The constraints
    take the place of the cusp rows 10-11 of each block, so one `_newton`
    from the second-order start solves the square system to 1e-12: on
    cusp 0, x_2 - x_3 and the pin; on cusp c >= 1, alpha_0 - alpha_1 and
    alpha_1 - alpha_2 of its first tetrahedron."""
    cs = solve_complete(sig)
    first, second = varsigma_derivatives(sig)
    L, S, o = _linear_rows([None] * sig.k)
    L[:, 10:12], S[:, 10:12], o[:, 10:12] = 0.0, 0.0, 0.0
    L[0, 10, 1:3] = L[1:, 11, 1:3] = L[1:, 10, 0:2] = (1.0, -1.0)
    L[0, 11, 0], L[0, 11, 6] = 1.0, -1.0
    o[0, 11] = 4.0 * math.sin(cs.alpha_bar) * t
    return _newton(sig, cs.x0 + t * first + 0.5 * t * t * second, (L, S, o), 1e-12)[0]
