"""The deformation variety of the (g, k) family.

A point is a vector x in R^{12k+1} of dihedral angles.  Outside the
solver's kernel, `angle_blocks` is the one reader of its layout: the
view of x[:-1] as a (k, 2, 2, 3) array [cusp c, tetrahedron 2c or 2c+1,
alpha or gamma, apex j], and `cusp_angles` the block of one cusp.  In
flat indices, with l = 0..2k-1 the tetrahedron,

    alpha_l^j -> x[6*l + j]        j = 0..2 (apex)
    gamma_l^j -> x[6*l + 3 + j]
    beta      -> x[12*k] = x[-1]

Tetrahedra 2c and 2c+1 are the pair incident to cusp c, alpha sits on
the compact-face edges, gamma on the edges at the ideal vertex, and beta
is the common angle of the g-k compact regular tetrahedra.

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
complete solution, where its tangent space is in closed form
(`tangent_basis`); completeness or filling conditions on the per-cusp
log-holonomies (u, v) cut it down to isolated points.  Each filling,
every slope of length >= sqrt(7), is reached by one route, a
predictor-corrector continuation from the complete solution (`_path`)
whose predictor is the Taylor polynomial of the closed-form jet, the
path's Taylor coefficients to order 4 (`_complete_jet`, with no linear
solve).  Its first step is one Newton solve at s = 1, of at least one
block step, which ends with one step more where it stops short of the
rounding floor (`_newton`); the first steps of a batch are one stacked
solve.  That step starts (`_starts`) where the cusps' blocks, each on
its path in beta, close the total angle: a filling reaches the geodesic
boundary only through beta, and with beta held the blocks do not couple.
A target of the signature's table (`_cusp_table`: for the complete block
and each integer slope of squared length 7 to 103, the block solved with
beta held, as a quintic in beta) takes its tabulated path, any other its
own fourth-order block moved along the complete block's path; a list of
tabulated targets starts about 1e-11 from the solution, one block step.
`solve_complete` solves each signature's complete solution once per
process, and an LRU cache of 128 signatures keeps it, with a read-only
x0, the jet's constants (`_taylor_forms`) and the distinguished curve's
derivative vectors, and the table once the signature's first filled spec
has built it: the one per-signature cache.

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
alphas, corner 6(g-k)).  The solver works on N points of one signature
at once, the fillings of a batch: a step is one batched solve of the
N k 12x12 blocks with two right-hand sides (the residual and the border
column) and then one scalar Schur complement for each point's beta,
O(Nk) work instead of the O(k^3) of each dense (12k+1)^2 system.  Each
point gets the same floating-point results as when it is solved alone,
and a point whose system is singular gets a NaN step (`_solve_each`),
which fails that point alone: its record (`Solved`, one per point from
Newton to the report) holds the error.
`residuals` reads the structure rows of one point, and `jacobian`
scatters the same entries into the dense (10k+1) x (12k+1) public form.
No other module reads this system: `tangent_spectrum` gives `mgk
tangent` its numbers from one cusp's block, `_structure_rows` gives the
report the structure rows of a solver record's residual, and
`correction` gives `commensurability_xk` the next Newton step at a
point.
"""

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, Sequence, Tuple

import numpy as np

# the solver's failure is defined in hyptrig, beside DomainError, and
# re-exported here under the name it has always had
from .hyptrig import ConvergenceError, DomainError, FillingSpec, slope_text

# working margin keeping iterates strictly inside (0, pi)
_CLIP = 1e-8
_MAX_ITER = 25
# residual sup-norm a filling is solved to
_FILL_TOL = 1e-10
# fill gates that the rounding floor of a cusp row, (|p| + |q|) eps, and of a
# length row, edge_cosh(beta) eps, may reach: most fillings beyond fail (CHANGES.md)
_CUSP_FLOOR = 4.0
_LENGTH_FLOOR = 1.05
# a point whose length rows stand above this many times their rounding floor
# edge_cosh(beta) eps is short of its floor (`_short_of_floor`).  After the one
# block step from the table start, 680 seeded fill_ladder- and fill_batch-
# shaped fillings stood at most 7.0 times it.  Of 360 seeded lists with cusp 1
# beyond the table (CHANGES.md), 313 met the gate at most 128 times it and 47 at
# 134 or more, 36 of them below 1,000: no gap parts them (from the fourth-order
# start, 38 and 805).  The table's entries stand at most 115.6 times it
_POLISH = 128.0
_EPS = float(np.finfo(float).eps)
# |u| below which a cusp counts as complete (unfilled)
COMPLETE_TOL = 1e-9
_OUTSIDE_BOX = "coordinates must lie in (0, pi)"


@dataclass(frozen=True)
class GKSignature:
    g: int
    k: int

    def __post_init__(self):
        # a bool would equal, and share the cached structure of, 0 or 1
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (self.g, self.k)):
            raise DomainError("g, k must be integers")
        if not self.g > self.k >= 1:
            raise DomainError("signature requires g > k >= 1")
        # numpy's own limit: np.full of 12k+1 doubles raises ValueError above it
        if 8 * (12 * self.k + 1) > sys.maxsize:
            raise DomainError("request too large for memory")

    @property
    def n_coords(self) -> int:
        return 12 * self.k + 1


def cusps_of(x: np.ndarray) -> int:
    k, rem = divmod(len(x) - 1, 12)
    if rem != 0 or k < 1:
        raise DomainError("coordinate vector length %d is not 12k+1" % len(x))
    return k


def angle_blocks(x) -> np.ndarray:
    """The angles of x as a (k, 2, 2, 3) array [cusp c, tetrahedron 2c or
    2c+1, alpha or gamma, apex]; beta is x[-1].  For an ndarray x it is a
    view, so writes through it land in x."""
    x = np.asarray(x)
    return x[:-1].reshape(cusps_of(x), 2, 2, 3)


def cusp_angles(x, cusp: int) -> np.ndarray:
    """The (2, 2, 3) block of `cusp` (0-based) in `angle_blocks(x)`."""
    blocks = angle_blocks(x)
    if not 0 <= cusp < len(blocks):
        raise DomainError("cusp index %d out of range" % cusp)
    return blocks[cusp]


def check_coords(sig: GKSignature, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sig.n_coords,):
        raise DomainError("expected %d coordinates, got %r" % (sig.n_coords, x.shape))
    if not (0.0 < x.min() and x.max() < math.pi):
        raise DomainError(_OUTSIDE_BOX)
    return x


# ---------------------------------------------------------------------------
# complete solution


@dataclass(frozen=True, slots=True)
class CompleteSolution:
    """The complete structure that `solve_complete` certified, with the
    jet's constants: cot_scale, t = sqrt(3) cot(alpha_bar) of
    `_tangent_block`; forms, the (6, 2) table of a filled cusp's own
    Taylor forms, and beta_slope and beta_quartic, its coupling to beta
    and so to every cusp (`_taylor_forms`); varsigma, the distinguished
    curve's pair of `varsigma_derivatives`; and residual, the 12k+1
    residuals (block order, cusp rows of u = 0) at x0 that certified it.
    One object serves every caller, so its arrays are read-only.  Its slot
    _table keeps the signature's table of solved cusp blocks once a filling
    has built it (`_cusp_table`): the table leaves the cache with it."""

    alpha_bar: float
    beta_bar: float
    x0: np.ndarray
    cot_scale: float
    forms: np.ndarray
    beta_slope: float
    beta_quartic: float
    varsigma: Tuple[np.ndarray, np.ndarray]
    residual: np.ndarray
    _table: list = field(default_factory=list, init=False, repr=False, compare=False)


# more than fill_batch's 38 signatures; about 25 kB each at k = 64, and
# 13.4 kB more once a filling has built its table (`_cusp_table`)
_COMPLETE_CACHE = 128


@functools.lru_cache(maxsize=_COMPLETE_CACHE)
def solve_complete(sig: GKSignature) -> CompleteSolution:
    """The unique symmetric solution of the structure plus completeness
    equations: every gamma = pi/3, every alpha equal.  The length row then
    reads (cos^2 a + 1/2) / sin^2 a = edge_cosh(beta), whose solution is

        sin(a) = sqrt(3) sin(beta/2),

    the block of a cusp at its own beta.  What is left is the angle sum

        F(beta) = 6 k asin(sqrt(3) sin(beta/2)) + 6 (g-k) beta - 2 pi = 0.

    a(beta) = asin(sqrt(3) sin(beta/2)) is rising and convex on
    (0, 2 asin(1/sqrt(3))), so F is too, and a(beta) >= (sqrt(3)/2) beta
    there.  The root of that linearization, 2 pi / (3 sqrt(3) k + 6(g-k)),
    thus has F >= 0: it lies right of the root, and a plain Newton loop
    from it falls onto the root from the right, with no safeguard.

    Solved once per process per signature: an LRU cache of 128 signatures
    (`_COMPLETE_CACHE`) keeps the result, whose arrays are read-only, and
    hands a repeated call the same object, with no solve and no gate.  It
    is the process's one per-signature cache: `cache_clear()` empties it.
    The gate reads the structure rows of one kernel evaluation at x0, kept
    as `residual`; its ConvergenceError is not kept: each call raises it anew.
    The table of the cusp blocks' paths in beta is not built here but by
    the signature's first filled spec (`_cusp_table`), and kept in the
    record, so that `cache_clear()` empties it too.
    """
    k, m = sig.k, sig.g - sig.k
    r3 = math.sqrt(3.0)
    b = 2.0 * math.pi / (3.0 * r3 * k + 6.0 * m)
    for _ in range(_MAX_ITER):
        a = math.asin(r3 * math.sin(0.5 * b))
        f = 6.0 * k * a + 6.0 * m * b - 2.0 * math.pi
        step = f / (3.0 * r3 * k * math.cos(0.5 * b) / math.cos(a) + 6.0 * m)
        # a step within rounding, or one of the wrong sign: the root is reached
        if not step > 2.0 * _EPS * b:
            break
        b -= step
    x0 = np.full(sig.n_coords, b)
    angle_blocks(x0)[:] = [[a, a, a], [math.pi / 3.0] * 3]
    # the structure rows are gated, the cusp rows of u = 0 are not
    (r,), _ = _evaluate(sig, x0[None], _linear_rows([None] * k))
    norm = float(np.abs(_structure_rows(r, k)).max())
    # the length rows cannot beat the evaluation noise of their own scale
    if norm > max(1e-12, 64.0 * _EPS * abs(edge_cosh(b))):
        raise ConvergenceError("complete solution residual %g" % norm, norm)
    if not (a < b < 2.0 * a <= math.pi / 3.0 + 1e-15):
        raise ConvergenceError("complete solution violates the angle inequalities")
    t, s = r3 * math.cos(a) / math.sin(a), math.sin(a)
    forms, beta_slope, beta_quartic = _taylor_forms(a, b, sig.g, k)
    # the distinguished curve, supported on the first cusp block: the
    # tangent (x1, x2) = (2s, -s), whose 3 x_j^2 - 2Q are (6, -3, -3) s^2, and
    # x'' = 2 c2, the same on both tetrahedra
    varsigma = np.zeros((2, sig.n_coords))
    varsigma[0, :12] = _tangent_block(t, 2.0 * s, -s).ravel()
    varsigma[1, :12] = np.tile(np.outer(2.0 * forms[1], [6.0 * s * s, -3.0 * s * s, -3.0 * s * s]).ravel(), 2)
    for array in (x0, forms, varsigma, r):
        array.flags.writeable = False
    return CompleteSolution(a, b, x0, t, forms, beta_slope, beta_quartic, tuple(varsigma), r)


# the table's cut on a slope's squared length p^2 - pq + q^2: from the
# fourth-order start one filled cusp took 3 to 5 block solves up to 57 at
# (2, 1), 73 at (17, 16) and (65, 64) and 103 at g = 200, and 2 above
_TABLE_CUT = 104
# p^2 - pq + q^2 >= 3 max(|p|, |q|)^2 / 4 bounds the search
_TABLE_SLOPES = [
    (p, q) for m in [math.isqrt(4 * _TABLE_CUT // 3)] for p in range(m + 1) for q in range(-m, m + 1)
    if (p > 0 or q == 1) and math.gcd(p, q) == 1 and 7 <= p * p - p * q + q * q < _TABLE_CUT
]


# one cusp block under the torus isometries, as index maps (new angle j =
# old angle m[j]) of its (2, 2, 3) layout: the rotation r, (p, q) ->
# (p - q, p), swaps the tetrahedra and cycles the apices, and the
# reflection s, (p, q) -> (p - q, -q), swaps apices 0 and 1
# (`commensurability_xk.phi_r` and `phi_s` on a point)
_ROTATE = np.arange(12).reshape(2, 2, 3)[::-1][..., [1, 2, 0]].ravel()
_REFLECT = np.arange(12).reshape(2, 2, 3)[..., [1, 0, 2]].ravel()


@functools.cache
def _table_plan():
    """How `_cusp_table` gets its entries from few solves, the same for
    every signature: the targets it solves, None and the first slope of
    each of the 19 orbits of `_TABLE_SLOPES` under r and s, with their
    `_linear_rows`; per table target, None and then `_TABLE_SLOPES`, the
    position `source` of its solved target and the flat indices 12 source
    + m[j] that gather its block from an (n, 12) array of the solved ones,
    m the index map that carries that block onto its own; and
    `_linear_rows` of the table targets, for the gate and for the rows of
    a tabulated list (`_starts`).  A walk over the signed images of each
    solved slope reaches its whole orbit: r^3 swaps the tetrahedra, which
    carries the block of -(p, q) onto that of (p, q)."""
    targets, slopes = [None] + _TABLE_SLOPES, set(_TABLE_SLOPES)
    solved, found = [None], {None: (0, np.arange(12))}
    for pq in _TABLE_SLOPES:
        if pq in found:
            continue
        seen, todo = {pq: np.arange(12)}, [pq]
        while todo:
            p, q = todo.pop()
            for image, step in (((p - q, p), _ROTATE), ((p - q, -q), _REFLECT)):
                if image not in seen:
                    seen[image] = seen[(p, q)][step]
                    todo.append(image)
        found.update((image, (len(solved), m)) for image, m in seen.items() if image in slopes)
        solved.append(pq)
    source = np.array([found[t][0] for t in targets])
    flat = np.array([12 * found[t][0] + found[t][1] for t in targets])
    return solved, _linear_rows(solved), source, flat, _linear_rows(targets)


# the quintic Hermite interpolant p(tau) = sum of a_n tau^n through tau = 0,
# 1/2, 1, with a_0, a_1 its value and slope at 0: (a_2, .., a_5) is this matrix
# times (f(1/2) - f(0) - f'(0)/2, f'(1/2) - f'(0), f(1) - f(0) - f'(0), f'(1) - f'(0))
_HERMITE = np.array([[16.0, -8.0, 7.0, -1.0], [-32.0, 32.0, -34.0, 5.0], [16.0, -40.0, 52.0, -8.0], [0.0, 16.0, -24.0, 4.0]])


def _cusp_table(sig: GKSignature, cs: CompleteSolution):
    """The table of solved cusp blocks of sig, whose complete structure
    `solve_complete` gives as cs, all read-only: per orbit of
    `_table_plan`, the path B(beta) of its solved cusp block with beta held
    fixed, as the coefficients c_0..c_5 of a polynomial in delta = beta -
    beta_bar, an array of shape (6, n, 12) [power, orbit, block coordinate];
    the exact sums of each path's six alphas per power (`_alpha_sums`), of
    shape (6, n, w), which `_total_angle` adds; and the mapping of each
    table target, None (a complete cusp) or a sign-form slope of
    `_TABLE_SLOPES`, to its position in the plan's targets, whose `source`
    and flat indices carry its orbit's path onto its own.  With beta fixed
    the blocks do not couple, so a path depends on the target and beta
    alone, not on k.  The signature's first filled spec (`_starts`) builds
    it, in 9 or 10 kernel evaluations (up to 53 from g of about 400 on),
    and cs keeps it for later calls.

    The polynomial is the quintic Hermite interpolant through the nodes
    delta = 0, lo/2 and lo: at each node it meets the block B solved
    there and its beta-derivative -y, with y = A^-1 dbeta e the beta
    response, A the block's Jacobian and e the marks of its length rows
    (as in `_block_step`).  lo is 1.02 times the first-order beta shift
    of every one of the k cusps on a slope of length sqrt(7), whose blocks
    move beta the most, so every tabulated filling's beta lies inside.
    `_table_blocks` solves the blocks at beta_bar from their own
    fourth-order Taylor starts, `_predict` from the complete block along
    its `_own_forms`, which leave beta out, and then those at the two
    other nodes in one stacked solve from B - delta y.  The torus
    isometries permute the block's angles and rows and keep beta, so an
    index map carries each path onto every other slope of its orbit.  An
    entry whose 12 block rows at beta_bar miss the gate is left out, and
    so is every entry of an orbit whose block missed the gate or was
    singular at a node: `_starts` starts its target off the table."""
    if not cs._table:
        solved, rows, source, flat, gate_rows = _table_plan()
        own, _ = _own_forms(cs.cot_scale, cs.forms, solved)
        (B0,), (y0,), (good,) = _table_blocks(_predict(cs.x0[:12], own, 0.0, 1.0)[None], [cs.beta_bar], rows)
        sqrt7, corner = source[1 + _TABLE_SLOPES.index((3, 1))], 6.0 * (sig.g - sig.k)
        alphas, slopes = B0[sqrt7, _ALPHA_COLS].tolist() * sig.k, (-y0[sqrt7, _ALPHA_COLS]).tolist() * sig.k
        lo = -1.02 * math.fsum([corner * cs.beta_bar, -2.0 * math.pi] + alphas) / math.fsum([corner] + slopes)
        nodes = np.array([0.5 * lo, lo])[:, None, None]
        B, y, met = _table_blocks(B0 - nodes * y0, (cs.beta_bar + nodes[:, 0, 0]).tolist(), rows)
        # the Hermite data in tau = delta / lo, on [0, 1]: values f and slopes -lo y
        f0, f1, f2 = B0, B[0], B[1]
        d0, d1, d2 = -lo * y0, -lo * y[0], -lo * y[1]
        a = np.tensordot(_HERMITE, np.stack([f1 - f0 - 0.5 * d0, d1 - d0, f2 - f0 - d0, d2 - d0]), axes=1)
        table = np.stack([B0, -y0] + [a[n] / lo ** (n + 2) for n in range(4)])
        sums = _alpha_sums(table)
        good &= met.all(axis=0)
        m = len(source)
        (r,), _ = _evaluate(GKSignature(m + 1, m), np.append(B0.ravel()[flat], cs.beta_bar)[None], gate_rows)
        keep = np.flatnonzero((np.abs(r[:-1].reshape(m, 12)).max(axis=1) < _FILL_TOL) & good[source]).tolist()
        table.flags.writeable = sums.flags.writeable = False
        cs._table.append((table, sums, MappingProxyType({_TABLE_SLOPES[i - 1] if i else None: i for i in keep})))
    return cs._table[0]


def _alpha_sums(table: np.ndarray) -> np.ndarray:
    """Per power and orbit of `table`, the sum of its path's six alpha
    coefficients as an exact expansion: doubles whose exact sum is that of
    the six, an array of shape (6, n, w), zero-padded.  Two passes of
    error-free Two-Sums down the six (J. R. Shewchuk, "Adaptive Precision
    Floating-Point Arithmetic", DCG 18, 1997) keep their exact sum and
    gather it, as the errors of the errors vanish, into few of them; only
    the columns that are not zero everywhere are kept: w = 2 on every
    signature tried.  `math.fsum` is correctly
    rounded, so an fsum over such expansions is that over their terms.  An
    orbit whose terms are not all finite, as a block singular at a node
    leaves them, has none: its terms are zeroed first."""
    p = table[:, :, _ALPHA_COLS].reshape(-1, 6).T.copy()
    p[:, ~np.isfinite(p).all(axis=0)] = 0.0
    for _ in range(2):
        for i in range(1, 6):
            s = p[i] + p[i - 1]
            v = s - p[i]
            p[i], p[i - 1] = s, (p[i] - (s - v)) + (p[i - 1] - v)
    return p[p.any(axis=1)].T.reshape(table.shape[:2] + (-1,))


def _solve_each(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of the stacked systems A x = b, the solver's one
    rule for a singular system: numpy fails a whole stacked solve for one
    singular matrix, so then each is solved alone, and a singular one gets
    NaN, which fails its own point of `_newton` or block of `_table_blocks`
    and no other."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        out = np.full_like(b, math.nan)
    for i in range(len(A)):
        with contextlib.suppress(np.linalg.LinAlgError):
            out[i] = np.linalg.solve(A[i], b[i])
    return out


def _table_blocks(blocks: np.ndarray, betas: Sequence[float], rows):
    """The cusp blocks `blocks`, shape (N, n, 12), each solved alone with
    beta held at betas[i] for row i, whose linear rows are `rows` (the
    `_linear_rows` of n targets), by Newton on the blocks as the cusps of
    N points whose total-angle rows are not read: the solved blocks, their
    beta responses y = A^-1 dbeta e from the blocks of the last
    evaluation, both of shape (N, n, 12), and per block whether it met the
    gate with a finite y.  A block stops by the rule of a point of
    `_newton`: once it meets the gate and is not `_short_of_floor`, else
    one step after it meets the gate.  A singular block's step is NaN,
    and so is the block from then on: it stops and misses the gate."""
    N, n = blocks.shape[:2]
    sig = GKSignature(n + 1, n)
    x = np.concatenate([blocks.reshape(N, 12 * n), np.array(betas)[:, None]], axis=1)
    xb = blocks.reshape(N * n, 12).copy()
    rows = [np.concatenate([a] * N) for a in rows]
    r, jacobians = _evaluate(sig, x, rows)
    stop = np.zeros(N * n, dtype=bool)
    for _ in range(_MAX_ITER):
        R = r[:, :-1].reshape(N * n, 12)
        norm = np.abs(R).max(axis=1)
        # a block below the gate stops at its floor, and one short of it
        # takes this step, to its floor, and then stops
        stop |= (norm != norm) | (norm < _FILL_TOL) & ~_short_of_floor(r[:, :-1], betas).ravel()
        run = np.flatnonzero(~stop)
        if not len(run):
            break
        stop |= norm < _FILL_TOL
        A, _ = jacobians()
        xb[run] = _clip(xb[run] - _solve_each(A[run], R[run, :, None])[:, :, 0])
        x[:, :-1] = xb.reshape(N, 12 * n)
        r, jacobians = _evaluate(sig, x, rows)
    A, dbeta = jacobians()
    e = np.zeros((N * n, 12, 1))
    e[:, :6] = np.repeat(dbeta, n)[:, None, None]
    y = _solve_each(A, e)[:, :, 0]
    met = (np.abs(r[:, :-1].reshape(N * n, 12)).max(axis=1) < _FILL_TOL) & np.isfinite(y).all(axis=1)
    return xb.reshape(N, n, 12), y.reshape(N, n, 12), met.reshape(N, n)


# ---------------------------------------------------------------------------
# residual system: one vectorised kernel over the cusp blocks of x

# block-local columns: the alphas (the border row), and per length row
# 3t + j those of alpha_t^{j+1}, alpha_t^{j+2} and gamma_t^j
_ALPHA_COLS = np.array([0, 1, 2, 6, 7, 8])
_LENGTH_COLS = np.array(
    [[6 * t + (j + 1) % 3, 6 * t + (j + 2) % 3, 6 * t + 3 + j] for t in (0, 1) for j in range(3)]
).T
# the same entries as flat indices into a 12x12 block
_LENGTH_ENTRIES = _LENGTH_COLS + 12 * np.arange(6)
_SINE_SIGNS = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]).reshape(2, 1, 1, 3)
# u and v on the gammas of tetrahedron 2c (those of 2c+1 take the opposite
# signs): the log-sine coefficients of the real parts, the angle
# coefficients of the imaginary parts
_U_LOG, _V_LOG = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])
_U_ARG, _V_ARG = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])


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
    su, lv = p * _U_LOG + q * _V_LOG, p * _U_ARG + q * _V_ARG
    S[:, 10, 3:6], S[:, 10, 9:12] = su, -su
    L[:, 11, 3:6], L[:, 11, 9:12] = lv, -lv
    o[:, 11] = 2.0 * math.pi * filled
    return L, S, o


def _evaluate(sig: GKSignature, x: np.ndarray, rows):
    """Residuals of the square system at the N points x, shape
    (N, 12k+1), in block order (12 rows per cusp, then the total angle),
    and a function returning the Newton blocks from the same sin/cos
    pass: A of shape (Nk, 12, 12) and the list of the N dbeta.  `rows`
    are the linear rows of the N k blocks, `_linear_rows` of the points'
    targets concatenated.  Every point gets the bits it gets alone: the
    functions of beta use `math`, and each point's angle sum is a sum of
    its own."""
    n_pts, k = len(x), sig.k
    L, S, o = rows
    beta = x[:, -1].tolist()
    xb = x[:, :-1].reshape(n_pts * k, 12, 1)
    s, c = np.sin(xb), np.cos(xb)
    # (Nk, 3, 6): sin/cos of alpha^{j+1}, alpha^{j+2}, gamma^j per length row
    sl, cl = s[:, _LENGTH_COLS, 0], c[:, _LENGTH_COLS, 0]
    den = sl[:, 0] * sl[:, 1]
    prods = s.reshape(-1, 2, 2, 3).prod(axis=(1, 2))
    R = (L @ xb + S @ np.log(s))[:, :, 0] - o
    R[:, :6] = (cl[:, 0] * cl[:, 1] + cl[:, 2]) / den
    R[:, 8:10] = prods[:, :2] - prods[:, 1:]
    r = np.empty((n_pts, 12 * k + 1))
    # the gather is apex-major, strides (8, 8Nk, 8), so a.sum() adds apex by apex;
    # a row sum of a C-contiguous (N, 6k) copy is batch-invariant but changes bits
    for i, (b, a) in enumerate(zip(beta, xb[:, _ALPHA_COLS].reshape(n_pts, k, 6, 1))):
        R[k * i:k * i + k, :6] -= edge_cosh(b)
        r[i, -1] = 6.0 * (sig.g - k) * b + a.sum() - 2.0 * math.pi
    r[:, :-1] = R.reshape(n_pts, -1)

    def blocks():
        cot = c / s
        A = L + S * cot.reshape(-1, 1, 12)
        q = -1.0 / den
        # d/d alpha^{j+1}, alpha^{j+2}: -(cos a_other + cos a_self cos g) / (den sin a_self)
        d = (cl[:, 1::-1] + cl[:, :2] * cl[:, 2:3]) * (q[:, None] / sl[:, :2])
        # rows 0-5 of L and S are zero, so A holds zero at every other entry of them
        A.reshape(-1, 144)[:, _LENGTH_ENTRIES] = np.concatenate([d, (sl[:, 2] * q)[:, None]], axis=1)
        # d Pi^j / d x = Pi^j cot x over the four angles at apex j
        A.reshape(-1, 12, 2, 2, 3)[:, 8:10] = (
            prods.reshape(-1, 1, 1, 1, 3) * _SINE_SIGNS * cot.reshape(-1, 1, 2, 2, 3)
        )
        return A, [math.sin(b) / _versine(b) ** 2 for b in beta]

    return r, blocks


def _structure_rows(a: np.ndarray, k: int) -> np.ndarray:
    """The 10k+1 structure rows of `a` (rows in block order) as `residuals`
    orders them: rows 0-9 of each block and the total angle, which do not
    depend on the targets."""
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
    """The 10k+1 structure residuals at the point x (layout in the module
    docstring)."""
    (r,), _ = _evaluate(sig, check_coords(sig, x)[None], _linear_rows([None] * sig.k))
    return _structure_rows(r, sig.k)


def jacobian(sig: GKSignature, x) -> np.ndarray:
    """Analytic Jacobian of `residuals`: the Newton blocks, scattered dense."""
    _, blocks = _evaluate(sig, check_coords(sig, x)[None], _linear_rows([None] * sig.k))
    A, dbeta = blocks()
    return _structure_rows(_dense(sig, A, dbeta[0]), sig.k)


# ---------------------------------------------------------------------------
# log-holonomies and Dehn coefficients


def uv(x, cusp: int) -> Tuple[complex, complex]:
    """Log-dilations (u, v) of the two marked peripheral curves of `cusp`
    (0-based), read off the gamma angles of its tetrahedron pair: each g as
    log(sin g / sin(pi/3)) = log1p(2 cos(pi/3 + d/2) sin(d/2) / sin(pi/3)),
    d = g - pi/3, with no log of a ratio near 1, so (u, v) is the exact
    log-holonomy of x to a few ulps of |u|; x holds u to about 1e-16 absolute."""
    return _uv(*cusp_angles(x, cusp)[:, 1].tolist())


def _uv(gA, gB) -> Tuple[complex, complex]:
    """`uv` from the gammas gA, gB (lists by apex) of the cusp's tetrahedra."""
    c, sc = math.pi / 3.0, math.sin(math.pi / 3.0)
    a0, a1, a2, b0, b1, b2 = (
        math.log1p(2.0 * math.cos(c + 0.5 * (g - c)) * math.sin(0.5 * (g - c)) / sc) for g in gA + gB
    )
    return complex(a0 + b1 - a1 - b0, gA[2] - gB[2]), complex(a1 + b2 - a2 - b1, gA[0] - gB[0])


def dehn_coefficients(x, cusp: int):
    """The real pair (p, q) with p*u + q*v = 2*pi*i at `cusp`, or None when
    the cusp is complete (u = 0).  Raises if u, v are real-proportional,
    which happens only far from the complete solution."""
    return _coefficients(*uv(x, cusp), cusp)


def _coefficients(u: complex, v: complex, cusp: int):
    """`dehn_coefficients` from the cusp's (u, v)."""
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
# Newton solver with coefficient continuation


def _clip(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, _CLIP), math.pi - _CLIP)


def _block_step(sig: GKSignature, r: np.ndarray, A: np.ndarray, dbeta: Sequence[float]) -> np.ndarray:
    """Solve the block-arrow systems J step = r of N points, r of shape
    (N, 12k+1) and A of shape (Nk, 12, 12): per cusp A_c s_c + dbeta e
    s_beta = r_c (e marks the length rows) and sum(alpha steps) + 6(g-k)
    s_beta = r_total.  One batched solve of the N k blocks for the two
    right-hand sides r_c and dbeta e (`_solve_each`), then the scalar Schur
    complement for each s_beta: O(Nk) work.  A point whose system is
    singular, a block or its Schur scalar, gets a step of NaN, and every
    other point the bits of its step alone."""
    n_pts, k = len(r), sig.k
    rhs = np.zeros((n_pts * k, 12, 2))
    rhs[:, :, 0] = r[:, :-1].reshape(-1, 12)
    for i, d in enumerate(dbeta):
        rhs[k * i:k * i + k, :6, 1] = d
    y = _solve_each(A, rhs)
    # one Schur scalar per point, in the arithmetic of a single point
    corner = 6.0 * (sig.g - k)
    step = np.empty_like(r)
    ya = y.reshape(n_pts, k, 12, 2)[:, :, _ALPHA_COLS].sum(axis=(1, 2)).tolist()
    for i, ((a0, a1), total) in enumerate(zip(ya, r[:, -1].tolist())):
        step[i, -1] = (total - a0) / (corner - a1) if corner - a1 != 0.0 else math.nan
    y = y.reshape(n_pts, 12 * k, 2)
    step[:, :-1] = y[..., 0] - step[:, -1:] * y[..., 1]
    return step


def correction(sig: GKSignature, x) -> np.ndarray:
    """The next Newton correction J^-1 r at the point x of the square
    system whose cusp rows fill each cusp's own recovered coefficients
    (`dehn_coefficients`; u = 0 on a complete cusp): to first order, x
    minus the exact structure of those coefficients.  Raises DomainError
    where they are undefined, LinAlgError where J is singular: where
    `_block_step` gives a step that is not finite."""
    x = check_coords(sig, x)
    r, blocks = _evaluate(sig, x[None], _linear_rows([dehn_coefficients(x, c) for c in range(sig.k)]))
    step = _block_step(sig, r, *blocks())[0]
    if not np.isfinite(step).all():
        raise np.linalg.LinAlgError("Singular matrix")
    return step


def _short_of_floor(R: np.ndarray, betas: Sequence[float]) -> np.ndarray:
    """Per block of each point, whether Newton stopped it short of its
    rounding floor: whether the block's length rows, rows 0-5 of each
    12-row block of R (shape (N, 12k), the block rows of N points), stand
    above `_POLISH` times their rounding floor edge_cosh(beta) eps at the
    point's beta; shape (N, k)."""
    length = np.abs(R.reshape(len(R), -1, 12)[:, :, :6]).max(axis=2)
    return length > _POLISH * _EPS * np.array([edge_cosh(b) for b in betas])[:, None]


@dataclass
class Solved:
    """The one record of a solve, from `_newton`, one per point, through
    `_path` to `solve_fillings`, one per spec: x, the solution or the error
    that stopped it, and the residual vector (block order) at x, that of
    `_newton`'s last evaluation or for a spec with every cusp unfilled the
    read-only `CompleteSolution.residual`; None exactly when x is an error."""

    x: object
    residual: Optional[np.ndarray] = None


def _newton(sig: GKSignature, x0: np.ndarray, rows, tol: Optional[float]) -> list:
    """Newton with block-arrow steps on N square systems at once, from
    the points x0 of shape (N, 12k+1), whose linear block rows are `rows`
    (as for `_evaluate`), to the residual sup-norm `tol`: each point takes
    at least one step and is solved until its sup-norm is below `tol`.  A
    start may meet `tol` already, as the table start of `_starts` does at
    g of about 10 and more: it is not a solved point, and its step takes it
    to the floor.  With `tol` None each point takes one step and no stop
    test, the corrector of a continuation point short of the filling.
    Returns one `Solved` per point: its point and residual vector (block
    order) there, or the error that stopped it, a ConvergenceError, or the
    DomainError `_OUTSIDE_BOX` for a start that is not a number.

    Each point takes the steps it takes alone, every full step, clipped
    into the open angle box.  A point that has converged or stopped
    rides along with a zero step, so that every evaluation covers all N
    points.  A point whose step left its bits as they were has stalled,
    since every later step would be the same, unless it meets `tol`: then
    it has converged.  A point whose system is singular gets a NaN step
    (`_block_step`) and fails with "singular Jacobian" and its residual
    before that step.

    With `tol` given, a point that met it `_short_of_floor` takes one
    step more, from the blocks of its last evaluation.  Newton
    converges quadratically, so it can stop just below `tol` with the
    digits of `tol` and not of the floor, and the length rows, whose
    Jacobian entries are the largest, show it first; the step takes the
    point to the floor.  Those points are evaluated once more, and the
    step is kept where it meets `tol`, which a NaN step never does."""
    x = _clip(np.asarray(x0, dtype=float))
    n_pts, k = len(x), sig.k
    r, blocks = _evaluate(sig, x, rows)
    norm = np.abs(r).max(axis=1).tolist()
    # after `_clip` a point has a finite norm, or a NaN norm and a NaN angle
    errors = [DomainError(_OUTSIDE_BOX) if m != m else None for m in norm]
    running = [i for i in range(n_pts) if errors[i] is None]
    for _ in range(_MAX_ITER):
        if not running:
            break
        A, dbeta = blocks()
        if len(running) == n_pts:
            step = _block_step(sig, r, A, dbeta)
        else:
            step = np.zeros_like(x)
            A = A.reshape(n_pts, k, 12, 12)[running].reshape(-1, 12, 12)
            step[running] = _block_step(sig, r[running], A, [dbeta[i] for i in running])
        xn = _clip(x - step)
        r, blocks = _evaluate(sig, xn, rows)
        before, norm = norm, np.abs(r).max(axis=1).tolist()
        stalled = (xn == x).all(axis=1).tolist()
        x = xn
        for i in running:
            # a running point, `_evaluate` in the box and `_clip` of +-inf are finite: a NaN norm is a singular step
            if norm[i] != norm[i]:
                errors[i] = ConvergenceError("singular Jacobian: Singular matrix", before[i])
            elif stalled[i] and (tol is None or not norm[i] < tol):
                errors[i] = ConvergenceError("Newton stalled at residual %g" % norm[i], norm[i])
        running = [i for i in running if errors[i] is None and tol is not None and not norm[i] < tol]
    else:
        for i in running:
            text = "no convergence: residual %g after %d iterations" % (norm[i], _MAX_ITER)
            errors[i] = ConvergenceError(text, norm[i])
    if tol is not None:
        short = _short_of_floor(r[:, :-1], x[:, -1].tolist()).any(axis=1)
        above = [i for i, s in enumerate(short.tolist()) if s and errors[i] is None]
        if above:
            A, dbeta = blocks()
            cusps = (np.array(above)[:, None] * k + np.arange(k)).ravel()
            y = _clip(x[above] - _block_step(sig, r[above], A[cusps], [dbeta[i] for i in above]))
            ry, _ = _evaluate(sig, y, [a[cusps] for a in rows])
            for j, i in enumerate(above):
                if np.abs(ry[j]).max() < tol:
                    x[i], r[i] = y[j], ry[j]
    return [Solved(x[i], r[i]) if exc is None else Solved(exc) for i, exc in enumerate(errors)]


def solve_filling(sig: GKSignature, spec: FillingSpec) -> np.ndarray:
    """Solve the square 12k+1 system: structure residuals plus, per cusp,
    p*u + q*v = 2*pi*i (filled) or u = 0 (complete), to a residual
    sup-norm below 1e-10.  Declared range (README): g <= 200 and k <= 64,
    with slopes of length >= sqrt(7) and max(|p|, |q|) up to 3e5.  Beyond
    it a cusp row rounds in steps of about (|p| + |q|) eps and a length
    row in steps of edge_cosh(beta) eps; a filling with the first above 4
    fill gates (9876543/1) or the second above 1.05 (g >= 510 at k = 1) is
    refused with a DomainError.

    A slope shorter than sqrt(7) is a DomainError.  Filled coefficients
    are continued (`_path`) in s = 1/t along the rows
    p*u + q*v = 2*pi*i*s from the complete structure x0 at s = 0.  The
    path's first step is one Newton solve at s = 1 (`_newton`, to the
    gate and then the rounding floor) from the start of `_starts` (README
    gives its block solves).  Fails loudly (ConvergenceError) if the path
    cannot reach s = 1.  This is `solve_fillings` on the one spec.
    """
    (x,) = solve_fillings(sig, [spec])
    if isinstance(x, Exception):
        raise x
    return x


def _cusp_count_error(sig: GKSignature, spec: FillingSpec) -> Optional[DomainError]:
    """The DomainError of a spec whose cusp count is not the signature's k,
    else None."""
    if len(spec.pairs) != sig.k:
        return DomainError("spec has %d cusps, signature has %d" % (len(spec.pairs), sig.k))
    return None


def solve_fillings(sig: GKSignature, specs: Sequence[FillingSpec], *, out: Optional[list] = None) -> list:
    """`solve_filling` for each of `specs` of one signature, solved
    together.  Returns, per spec, the solution or the DomainError or
    ConvergenceError that `solve_filling` raises for it, with the same
    bits and message: a spec that fails does not touch the others.  An
    entry of `specs` that is an error, such as that of parsing it, is its
    own result.  With `out`, a list, one `Solved` record per spec is
    appended to it.  `solve_complete` gives the complete structure and the
    jet's constants, and the signature's first filled spec builds its
    table of the cusp blocks' paths (`_cusp_table`), each once per process
    per signature.  A spec that the sqrt(7) gate `FillingSpec.is_hyperbolic`
    refuses, and each filled spec whose rounding floor exceeds `_CUSP_FLOOR`
    or `_LENGTH_FLOOR` fill gates, is refused before any step.  Every other
    filled spec's record is that of its `_path`, whose first steps are one
    stacked `_newton` to `_FILL_TOL` from their `_starts`, which read the
    table, each path taking its own point's record of that solve."""
    records, todo = [None] * len(specs), []
    for i, spec in enumerate(specs):
        exc = spec if isinstance(spec, Exception) else _cusp_count_error(sig, spec)
        if exc is None and not spec.is_hyperbolic():
            lmin = spec.min_filled_length()
            exc = DomainError("slope of length %.6g below the hyperbolicity threshold sqrt(7)" % lmin)
        if exc is None:
            todo.append((i, spec.canonicalized()))
        else:
            records[i] = Solved(exc)
    try:
        cs = solve_complete(sig) if todo else None
    except ConvergenceError as exc:
        for i, _ in todo:
            records[i] = Solved(exc)
        todo = []
    filled = []
    for i, spec in todo:
        if not spec.filled_count:
            records[i] = Solved(cs.x0.copy(), cs.residual)
            continue
        pq = max(filter(None, spec.pairs), key=lambda s: abs(s[0]) + abs(s[1]))
        cusp_floor, length_floor = (abs(pq[0]) + abs(pq[1])) * _EPS, edge_cosh(cs.beta_bar) * _EPS
        if cusp_floor > _CUSP_FLOOR * _FILL_TOL:
            records[i] = Solved(DomainError(
                "slope %s: cusp-row rounding floor (|p| + |q|) eps = %.3g is over %g times the gate %g"
                % (slope_text(pq), cusp_floor, _CUSP_FLOOR, _FILL_TOL)
            ))
        elif length_floor > _LENGTH_FLOOR * _FILL_TOL:
            records[i] = Solved(DomainError(
                "g=%d k=%d: length-row rounding floor edge_cosh(beta) eps = %.3g is over %g times the gate %g"
                % (sig.g, sig.k, length_floor, _LENGTH_FLOOR, _FILL_TOL)
            ))
        else:
            filled.append((i, spec))
    if filled:
        k = sig.k
        starts, rows = _starts(sig, cs, [spec for _, spec in filled])
        # every path's first step, to s = 1, as one stacked Newton solve
        firsts = _newton(sig, starts, rows, _FILL_TOL)
        for j, (i, spec) in enumerate(filled):
            records[i] = _path(sig, cs, spec, [a[k * j:k * j + k] for a in rows], firsts[j])
    if out is not None:
        out.extend(records)
    return [rec.x for rec in records]


def _starts(sig: GKSignature, cs: CompleteSolution, specs):
    """The start at s = 1 of each of the canonical filled `specs`, shape
    (N, 12k+1), and the linear block rows of all of them (`_linear_rows`
    of their targets, as `_evaluate` takes them).  Each cusp follows a path
    C(delta) of its block in delta = beta - beta_bar: a target of the
    table of sig (`_cusp_table`, built by the first call) its tabulated
    path, and any other its own fourth-order block with beta held (the
    start of the table's blocks) moved along the complete block's path.
    Each spec starts where its paths close the total angle,

        6(g-k) (beta_bar + delta) - 2 pi + sum over c of the alphas of C_c(delta) = 0,

    a quintic in delta (`_total_angle`) solved by scalar Newton (`_root`),
    at the blocks C_c(delta), by Horner, and beta_bar + delta.  Each cusp's
    path, orbit's alpha sums and rows are gathered from the plan's targets
    (`_table_plan`), and an off-table cusp's own block and rows written in
    their places.  Each coefficient is a `math.fsum` of the spec's own terms
    and the rest is elementwise, so each spec has the bits it gets alone."""
    n, k = len(specs), sig.k
    table, sums, positions = _cusp_table(sig, cs)
    _, _, source, flat, plan_rows = _table_plan()
    targets = [pq for spec in specs for pq in spec.pairs]
    # per cusp its position among the plan's targets, None's (0) where it is off the table
    picks = [positions.get(pq) for pq in targets]
    off = [i for i, pos in enumerate(picks) if pos is None]
    at = np.array([pos or 0 for pos in picks])
    rows = tuple(a[at] for a in plan_rows)
    # per cusp its path's coefficients, carried from its orbit's onto its target
    C = np.take(table.reshape(6, -1), flat[at], axis=1)
    # per spec the terms of p_0 by which its off-table blocks stand in for the complete one
    own = [[] for _ in range(n)]
    if off:
        far = [targets[i] for i in off]
        for a, b in zip(rows, _linear_rows(far)):
            a[off] = b
        C[0, off] = _predict(cs.x0[:12], _own_forms(cs.cot_scale, cs.forms, far)[0], 0.0, 1.0)
        complete = (-sums[0, 0]).tolist()
        for i, alphas in zip(off, C[0, off][:, _ALPHA_COLS].tolist()):
            own[i // k] += alphas + complete
    d = np.array([_root(p) for p in _total_angle(cs, sums, 6.0 * (sig.g - k), source[at].reshape(n, k), own)])
    C, d = C.reshape(6, n, 12 * k), d[:, None]
    B = C[5]
    for power in range(4, -1, -1):
        B *= d
        B += C[power]
    return np.concatenate([B, cs.beta_bar + d], axis=1), rows


def _total_angle(cs: CompleteSolution, sums: np.ndarray, corner: float, orbits: np.ndarray, own) -> list:
    """Per row of `orbits`, the table positions of one list's paths, the
    coefficients p_0..p_5 of its total angle in delta, corner (beta_bar +
    delta) - 2 pi + the sum of the alphas of the paths, corner = 6(g-k).
    The maps keep the alphas among the alphas, so each power's alpha terms
    are those of the cusps' orbits, and each p_n is one `math.fsum` over
    the orbits' exact alpha sums (`sums` of `_cusp_table`): the correctly
    rounded sum of the 6k alpha terms, as their own fsum is.  Per list,
    `own` holds more terms of p_0, each off-table cusp's six alphas and the
    negated sum of the complete block's, which that fsum cancels exactly."""
    terms = sums[:, orbits].reshape(6, len(orbits), -1).transpose(1, 0, 2).tolist()
    return [[math.fsum([corner * cs.beta_bar, -2.0 * math.pi] + t[0] + extra), math.fsum([corner] + t[1])]
            + [math.fsum(a) for a in t[2:]] for t, extra in zip(terms, own)]


def _root(p: Sequence[float]) -> float:
    """The root near 0 of the polynomial sum of p[n] d^n, by scalar Newton
    from the root of its linear part, to rounding."""
    d = -p[0] / p[1]
    for _ in range(_MAX_ITER):
        value = slope = 0.0
        for c in reversed(p):
            slope = slope * d + value
            value = value * d + c
        step = value / slope
        d -= step
        if not abs(step) > _EPS * abs(d):
            break
    return d


def _path(sig: GKSignature, cs: CompleteSolution, spec: FillingSpec, rows, first: Solved) -> Solved:
    """The continuation of the canonical spec alone, from the complete
    solution cs at s = 0, whose linear block rows at s = 1 are `rows`
    (`_linear_rows` of its pairs), up to s = 1: the `Solved` record of its
    solution and last Newton residual vector, or of the error that stopped
    it.  `first` is the `_newton` record of the first step, from a stacked
    solve, and a DomainError there (a start not a number) ends the path.

    A plain predictor-corrector.  The first step goes to s = 1, from the
    spec's start of `_starts`.  After a failed step the step halves, and
    each later step predicts the next s from the last solved point (s, x)
    plus the change of the Taylor polynomial of the spec's jet c1..c4
    (`_complete_jet`), x + sum of (s'^n - s^n) c_n (`_predict`), and
    corrects it with `_newton`: one step short of s = 1, to `_FILL_TOL`
    and the rounding floor at s = 1.  Below 1e-4 the step ends the path
    in a ConvergenceError that names the t of its last solved point and
    the last failure's residual.  Its fillings passed the sqrt(7) gate
    and the floor check of `solve_fillings`: a first step fails for a
    start too far out, or rarely for rounding near the floors."""
    L, S, o = rows
    s, ds, x, jet = 0.0, 1.0, cs.x0, None
    while s < 1.0:
        s_next = min(1.0, s + ds)
        if first is None:
            if jet is None:
                (jet,) = _complete_jet(sig, cs, [spec])
            o_s = o.copy()
            o_s[:, 11] *= s_next
            guess = _predict(x, jet, s, s_next)[None]
            (rec,) = _newton(sig, guess, (L, S, o_s), _FILL_TOL if s_next == 1.0 else None)
        else:
            rec, first = first, None
        if isinstance(rec.x, DomainError):
            return rec
        if isinstance(rec.x, Exception):
            ds /= 2.0
            if ds < 1e-4:
                text = "g=%d k=%d slopes %s: continuation step underflow at t=%g, residual %g" % (
                    sig.g, sig.k, ",".join(map(slope_text, spec.pairs)), 1.0 / s if s else math.inf, rec.x.residual
                )
                return Solved(ConvergenceError(text, rec.x.residual))
            continue
        x, s = rec.x, s_next
    return rec


# ---------------------------------------------------------------------------
# tangent space and the boundary-bending curve


def _tangent_block(t: float, x1, x2) -> np.ndarray:
    """The (2, 2, 3) cusp block of a tangent vector at the complete
    structure, [x1, x2, x3, t x1, t x2, t x3, -x1, -x2, -x3, -t x1, -t x2,
    -t x3] flat, with x3 = -x1 - x2 and t = sqrt(3) cot(alpha_bar); for
    arrays x1, x2 of shape (k,), the (k, 2, 2, 3) blocks of k cusps."""
    xs = np.array([x1, x2, -x1 - x2]).T
    return (np.array([[1.0], [t], [-1.0], [-t]]) * xs[..., None, :]).reshape(np.shape(x1) + (2, 2, 3))


def _taylor_forms(alpha_bar: float, beta_bar: float, g: int, k: int):
    """The per-signature constants of the Taylor coefficients c_n =
    x^(n)/n! of every filling's path at s = 0, in closed form: the (6, 2)
    table `forms`, beta_slope and beta_quartic, which `_complete_jet`
    reads.

    A cusp filled along the `_tangent_block` of (x1, x2) moves, at each
    apex j of its tetrahedra, by forms in x = x_j (x3 = -x1 - x2) and
    Q = x1^2 + x1 x2 + x2^2 = x_j^2 - x_{j+1} x_{j+2}, the same at every j.
    Row n of `forms` holds the (alpha, gamma) scales of a basis form, and
    with S, C = sin, cos of alpha_bar, t = sqrt(3) C / S and G = sqrt(3)
    (2C^2 - 1) / 36 S^4:

        c1:  x                      (1, t)
        c2:  K = 3x^2 - 2Q          (2C / 3S, sqrt(3) / 6S^2)
        c3:  x^3                    ((4C^2 - 1) / 3S^2, 0)
        c4:  x^4                    (2C^3 / S^3, -9G)
             x^2 Q                  (-4C / 3S^3, 24G)
             Q^2                    (2C (3 - 2C^2) / 9S^3, -10G)

    on tetrahedron 2c, and on 2c+1 the same at even orders and negated at
    odd ones: swapping a cusp's tetrahedra negates u and v, so x(-s) is
    the swap of x(s).  Each order solves the block of a complete cusp at
    x0 against the order-n part of the length and sine rows along the
    lower orders (derived with sympy from their truncated series).  The
    apex rotation keeps the forms cyclic, the cusp rows add nothing to
    them, so no form depends on (p, q) beyond (x1, x2), and c3 leaves the
    gammas.  c2 also gives the curvature of `varsigma_derivatives`.

    beta holds still to order 3.  At order 4 a cusp's own alphas sum to
    2 (2C (4C^2 - 1) / 3S^3) Q^2, so the total angle moves beta by

        c4(beta) = -beta_quartic * (sum of Q^2 over the filled cusps),
        beta_quartic = 4C (4C^2 - 1) / (3S^3 (6k a' + 6(g - k))),

    and every block follows beta as the complete block at its own beta
    does, alpha = a(beta) = asin(sqrt(3) sin(beta/2)), gamma = pi/3: its
    alphas move by beta_slope = a'(beta_bar) = sqrt(3) cos(beta_bar/2) / 2C
    times c4(beta).  Up to order 4 that is the only coupling between the
    cusps.  With one cusp filled, at s = 1, beta - beta_bar = -C(g, k) /
    |p + q omega|^4 + ..., with C(g, k) = beta_quartic (9 pi^4 / 16 t^4):
    the far fillings deform the geodesic boundary at fourth order."""
    sa, ca = math.sin(alpha_bar), math.cos(alpha_bar)
    r3, c2, s3 = math.sqrt(3.0), ca * ca, sa ** 3
    G = r3 * (2.0 * c2 - 1.0) / (36.0 * sa ** 4)
    forms = np.array([
        [1.0, r3 * ca / sa],
        [2.0 * ca / (3.0 * sa), r3 / (6.0 * sa * sa)],
        [(4.0 * c2 - 1.0) / (3.0 * sa * sa), 0.0],
        [2.0 * c2 * ca / s3, -9.0 * G],
        [-4.0 * ca / (3.0 * s3), 24.0 * G],
        [2.0 * ca * (3.0 - 2.0 * c2) / (9.0 * s3), -10.0 * G],
    ])
    beta_slope = 0.5 * r3 * math.cos(0.5 * beta_bar) / ca
    beta_quartic = 4.0 * ca * (4.0 * c2 - 1.0) / (3.0 * s3 * (6.0 * k * beta_slope + 6.0 * (g - k)))
    return forms, beta_slope, beta_quartic


# per order, the factor of tetrahedron 2c+1's block over 2c's: odd orders negate
_SWAP = np.array([[1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])[:, :, None, None]


def _own_forms(t: float, forms: np.ndarray, targets):
    """The Taylor coefficients c1..c4 of each target's cusp block with beta
    held at beta_bar, the `_taylor_forms` in its (x1, x2) of `_complete_jet`
    (zero for None) on tetrahedron 2c, and on 2c+1 the same at even orders
    and negated at odd ones (`_SWAP`): an array of shape (m, 4, 12)
    [target, order, block coordinate], and the (m, 1) column of Q."""
    c = math.pi / (2.0 * t)
    # per cusp x1, x2, x3 = -x1 - x2 and Q = x1^2 + x1 x2 + x2^2 = 3 c f
    tangents = []
    for pq in targets:
        if pq is None:
            tangents.append((0.0, 0.0, 0.0, 0.0))
        else:
            p, q = pq
            f = c / (p * p - p * q + q * q)
            tangents.append(((2.0 * q - p) * f, -(p + q) * f, (2.0 * p - q) * f, 3.0 * c * f))
    tangents = np.array(tangents).reshape(len(targets), 4)
    x, Q = tangents[:, :3], tangents[:, 3:]
    sq = x * x
    F = forms[:, :, None]
    own = np.empty((len(targets), 4, 2, 3))
    own[:, :3] = np.stack([x, 3.0 * sq - 2.0 * Q, x * sq], axis=1)[:, :, None] * F[:3]
    own[:, 3] = (sq * sq)[:, None] * F[3] + (sq * Q)[:, None] * F[4] + (Q * Q)[:, None] * F[5]
    return (own[:, :, None] * _SWAP).reshape(len(targets), 4, 12), Q


def _complete_jet(sig: GKSignature, cs: CompleteSolution, specs) -> np.ndarray:
    """The closed-form Taylor coefficients c_n = x^(n)/n!, n = 1..4, at
    s = 0 of the continuation of each of `specs` to its filling, from the
    complete solution cs: an array of shape (len(specs), 4, 12k+1).

    There v = omega u, omega = exp(2 pi i / 3), so a filled cusp moves with
    du/ds = 2 pi i / (p + q omega): c1 is the `_tangent_block` of

        (x1, x2) = (2q - p, -(p + q)) pi / (2 t (p^2 - pq + q^2)),

    and unfilled cusps stay put to order 3.  c2, c3 and c4 are the forms
    of `_taylor_forms` in each filled cusp's (x1, x2), and beta's c4, with
    the alphas of every block that follow it, sums Q^2 over the spec's
    cusps.  All specs are computed at once, elementwise over their cusps,
    and each spec's sum is its own `math.fsum`, so each spec has the bits
    it gets alone."""
    n, k = len(specs), sig.k
    own, Q = _own_forms(cs.cot_scale, cs.forms, [pq for spec in specs for pq in spec.pairs])
    beta = [-cs.beta_quartic * math.fsum(row) for row in (Q * Q).reshape(n, k).tolist()]
    own.reshape(n, k, 4, 12)[:, :, 3, _ALPHA_COLS] += (cs.beta_slope * np.array(beta))[:, None, None]
    jet = np.empty((n, 4, sig.n_coords))
    jet[:, :, :-1] = own.reshape(n, k, 4, 12).transpose(0, 2, 1, 3).reshape(n, 4, 12 * k)
    jet[:, :, -1] = 0.0
    jet[:, 3, -1] = beta
    return jet


def _predict(x: np.ndarray, jet: np.ndarray, s0: float, s1: float) -> np.ndarray:
    """x plus the change of the Taylor polynomial of `jet` (c1..c4 along
    its next-to-last axis) from s0 to s1, added term by term in order:
    x + (s1 - s0) c1 + (s1^2 - s0^2) c2 + (s1^3 - s0^3) c3 + (s1^4 - s0^4) c4."""
    for n in range(1, 5):
        x = x + (s1 ** n - s0 ** n) * jet[..., n - 1, :]
    return x


def tangent_basis(sig: GKSignature) -> np.ndarray:
    """Closed-form basis (2 vectors per cusp) of the tangent space of the
    variety at the complete solution: per cusp block,

        sqrt(3) cos(a) x_i = sin(a) x_{i+3}   (i = 1, 2, 3),
        x_i + x_{i+6} = 0                     (i = 1..6),
        x_1 + x_2 + x_3 = 0,

    and last coordinate zero: the `_tangent_block`s of (x1, x2) = (1, 0)
    and (0, 1)."""
    t, k = solve_complete(sig).cot_scale, sig.k
    basis = np.zeros((2 * k, sig.n_coords))
    # [cusp c, vector 2c or 2c+1, block of cusp c], a view of the rows
    blocks = basis[:, :-1].reshape(k, 2, k, 12)
    blocks[np.arange(k), :, np.arange(k)] = _tangent_block(t, *np.eye(2)).reshape(2, 12)
    return basis


def tangent_spectrum(sig: GKSignature):
    """What `mgk tangent` prints: the `tangent_basis`, max |J b| over it,
    and the 12k+1 singular values, descending, of the Jacobian J of
    `residuals` at the complete solution padded square with 2k zero rows.
    At x0 every cusp block of J is the same 10x12 block B, with border
    column b and row a as in the one-cusp Jacobian [[B, b], [a, 6(g - k)]],
    so all of it is read off the kernel's block of one cusp: in
    orthonormal cusp modes J is k - 1 copies of B and [[B, sqrt(k) b],
    [sqrt(k) a, 6(g - k)]], with no dense (12k+1)^2 SVD."""
    basis, k = tangent_basis(sig), sig.k
    # [[B, b], [a, 6(g - k)]]: the structure rows of one cusp's block and border
    J = jacobian(GKSignature(sig.g - k + 1, 1), solve_complete(sig).x0[-13:])
    jb = float(np.max(np.abs(J[:, :12] @ basis[:2, :12].T)))
    mode = J.copy()
    mode[:10, 12] *= math.sqrt(k)
    mode[10, :12] *= math.sqrt(k)
    sv = [np.linalg.svd(m, compute_uv=False) for m in (J[:10, :12], mode)]
    return basis, jb, np.sort(np.concatenate([np.tile(sv[0], k - 1), sv[1], np.zeros(2 * k)]))[::-1]


def varsigma_derivatives(sig: GKSignature) -> Tuple[np.ndarray, np.ndarray]:
    """First and second derivative vectors at t=0 of the distinguished
    curve through the complete solution (normalization: the second
    derivatives of coordinates 0 and 6 agree), supported on the first
    cusp block: the `_tangent_block` of (x1, x2) = (2 sin(alpha_bar),
    -sin(alpha_bar)) and its curvature (`_taylor_forms`), which keeps
    x_2 = x_3 and x_1 = x_7 as the curve does.  They are the read-only
    pair `varsigma` of the signature's `solve_complete` record."""
    return solve_complete(sig).varsigma


def varsigma_point(sig: GKSignature, t: float) -> np.ndarray:
    """Solve for the point at parameter t on the constrained curve

        { x_2 = x_3,  per-cusp blocks 2..k complete } on the variety,

    parameterized by x_1 - x_7 = 4 sin(alpha_bar) t, which pins the
    reparameterization freedom so that the second derivative satisfies
    the x_1/x_7 normalization of `varsigma_derivatives`.  The constraints
    take the place of the cusp rows 10-11 of each block, so one `_newton`
    from the second-order start solves the square system to 1e-12 and
    then its rounding floor: on cusp 0, x_2 - x_3 and the pin; on cusp
    c >= 1, alpha_0 - alpha_1 and alpha_1 - alpha_2 of its first
    tetrahedron.  Raises the error of the solve's one record, if any."""
    cs = solve_complete(sig)
    first, second = cs.varsigma
    L, S, o = _linear_rows([None] * sig.k)
    L[:, 10:12], S[:, 10:12], o[:, 10:12] = 0.0, 0.0, 0.0
    L[0, 10, 1:3] = L[1:, 11, 1:3] = L[1:, 10, 0:2] = (1.0, -1.0)
    L[0, 11, 0], L[0, 11, 6] = 1.0, -1.0
    o[0, 11] = 4.0 * math.sin(cs.alpha_bar) * t
    (rec,) = _newton(sig, (cs.x0 + t * first + 0.5 * t * t * second)[None], (L, S, o), 1e-12)
    if isinstance(rec.x, Exception):
        raise rec.x
    return rec.x
