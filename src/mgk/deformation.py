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
whose predictor is the Taylor polynomial of the closed-form jet,
tangent and curvature (`_complete_jet`, with no linear solve).  Its
first step is one Newton solve at s = 1 from x0 + x' + x''/2; the first
steps of a batch are one stacked solve.  `solve_complete` solves each
signature's complete solution once per process, and an LRU cache of 128
signatures keeps it, with a read-only x0, the jet's constants and the
distinguished curve's derivative vectors: the one per-signature cache.

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
point gets the same floating-point results as when it is solved alone.
`residuals` reads the structure rows of one point, and `jacobian`
scatters the same entries into the dense (10k+1) x (12k+1) public form.
No other module reads this system: `tangent_spectrum` gives `mgk
tangent` its numbers from one cusp's block, `_structure_rows` gives the
report the structure rows of a solver record's residual, and
`correction` gives `commensurability_xk` the next Newton step at a
point.
"""

import functools
import math
import sys
from dataclasses import dataclass
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

    @property
    def n_residuals(self) -> int:
        return 10 * self.k + 1


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
    `_tangent_block`, and curvature, the `_curvature_blocks`; varsigma,
    the distinguished curve's pair of `varsigma_derivatives`; and residual,
    the 12k+1 residuals (block order, cusp rows of u = 0) at x0 that
    certified it.  One object serves every caller, so its arrays are
    read-only."""

    alpha_bar: float
    beta_bar: float
    x0: np.ndarray
    cot_scale: float
    curvature: np.ndarray
    varsigma: Tuple[np.ndarray, np.ndarray]
    residual: np.ndarray


# more than fill_batch's 38 signatures; about 25 kB each at k = 64
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
    t, s, curvature = r3 * math.cos(a) / math.sin(a), math.sin(a), _curvature_blocks(a)
    # the distinguished curve, supported on the first cusp block
    varsigma = np.zeros((2, sig.n_coords))
    varsigma[0, :12] = _tangent_block(t, 2.0 * s, -s).ravel()
    varsigma[1, :12] = np.array([4.0 * s * s, -2.0 * s * s, s * s]) @ curvature
    x0.flags.writeable = curvature.flags.writeable = varsigma.flags.writeable = r.flags.writeable = False
    return CompleteSolution(a, b, x0, t, curvature, tuple(varsigma), r)


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
    right-hand sides r_c and dbeta e, then the scalar Schur complement for
    each s_beta: O(Nk) work.  Raises LinAlgError if any of the N systems
    is singular."""
    n_pts, k = len(r), sig.k
    rhs = np.zeros((n_pts * k, 12, 2))
    rhs[:, :, 0] = r[:, :-1].reshape(-1, 12)
    for i, d in enumerate(dbeta):
        rhs[k * i:k * i + k, :6, 1] = d
    y = np.linalg.solve(A, rhs)
    # one Schur scalar per point, in the arithmetic of a single point
    corner = 6.0 * (sig.g - k)
    step = np.empty_like(r)
    ya = y.reshape(n_pts, k, 12, 2)[:, :, _ALPHA_COLS].sum(axis=(1, 2)).tolist()
    for i, ((a0, a1), total) in enumerate(zip(ya, r[:, -1].tolist())):
        if corner - a1 == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        step[i, -1] = (total - a0) / (corner - a1)
    y = y.reshape(n_pts, 12 * k, 2)
    step[:, :-1] = y[..., 0] - step[:, -1:] * y[..., 1]
    return step


def _block_steps(sig: GKSignature, r: np.ndarray, A: np.ndarray, dbeta: Sequence[float]):
    """`_block_step`, and by position the LinAlgError of each system that is
    singular.  numpy fails a whole stacked solve for one singular block, so
    then each system is solved alone; a singular one gets a zero step."""
    try:
        return _block_step(sig, r, A, dbeta), {}
    except np.linalg.LinAlgError:
        k, step, failed = sig.k, np.zeros_like(r), {}
    for i in range(len(r)):
        try:
            step[i] = _block_step(sig, r[i:i + 1], A[k * i:k * i + k], dbeta[i:i + 1])[0]
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
    return step, failed


def correction(sig: GKSignature, x) -> np.ndarray:
    """The next Newton correction J^-1 r at the point x of the square
    system whose cusp rows fill each cusp's own recovered coefficients
    (`dehn_coefficients`; u = 0 on a complete cusp): to first order, x
    minus the exact structure of those coefficients.  Raises DomainError
    where they are undefined, LinAlgError where J is singular."""
    x = check_coords(sig, x)
    r, blocks = _evaluate(sig, x[None], _linear_rows([dehn_coefficients(x, c) for c in range(sig.k)]))
    return _block_step(sig, r, *blocks())[0]


def _newton(sig: GKSignature, x0: np.ndarray, rows, tol: Optional[float]):
    """Newton with block-arrow steps on N square systems at once, from
    the points x0 of shape (N, 12k+1), whose linear block rows are `rows`
    (as for `_evaluate`), to the residual sup-norm `tol`: each point is
    solved until its sup-norm is below `tol`.  With `tol` None each point
    takes one step and no stop test, the corrector of a continuation
    point short of the filling.  Returns the points, their residuals (in
    block order) of the last evaluation, and per point None or the error
    that stopped it: a ConvergenceError, or `check_coords`'s DomainError
    for a point that is not a number.

    Each point takes the steps it takes alone, every full step, clipped
    into the open angle box.  A point that has converged or stopped
    rides along with a zero step, so that every evaluation covers all N
    points.  A point whose step left its bits as they were has stalled:
    every later step would be the same."""
    x = _clip(np.asarray(x0, dtype=float))
    n_pts, k = len(x), sig.k
    r, blocks = _evaluate(sig, x, rows)
    norm = np.abs(r).max(axis=1).tolist()
    # after `_clip` a point has a finite norm, or a NaN norm and a NaN angle
    errors = [DomainError(_OUTSIDE_BOX) if m != m else None for m in norm]
    running = [i for i in range(n_pts) if errors[i] is None and (tol is None or not norm[i] < tol)]
    for _ in range(_MAX_ITER):
        if not running:
            break
        A, dbeta = blocks()
        if len(running) == n_pts:
            step, failed = _block_steps(sig, r, A, dbeta)
        else:
            step = np.zeros_like(x)
            A = A.reshape(n_pts, k, 12, 12)[running].reshape(-1, 12, 12)
            step[running], failed = _block_steps(sig, r[running], A, [dbeta[i] for i in running])
        for pos, exc in failed.items():
            i = running[pos]
            errors[i] = ConvergenceError("singular Jacobian: %s" % exc, norm[i])
        xn = _clip(x - step)
        r, blocks = _evaluate(sig, xn, rows)
        norm = np.abs(r).max(axis=1).tolist()
        stalled = (xn == x).all(axis=1).tolist()
        x = xn
        for i in [i for i in running if errors[i] is None]:
            if norm[i] != norm[i]:
                errors[i] = DomainError(_OUTSIDE_BOX)
            elif stalled[i]:
                errors[i] = ConvergenceError("Newton stalled at residual %g" % norm[i], norm[i])
        running = [i for i in running if errors[i] is None and tol is not None and not norm[i] < tol]
    else:
        for i in running:
            text = "no convergence: residual %g after %d iterations" % (norm[i], _MAX_ITER)
            errors[i] = ConvergenceError(text, norm[i])
    return x, r, errors


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
    path's first step, one Newton solve at s = 1 from x0 + x' + x''/2,
    takes 5 block solves at length sqrt(7), 4 at lengths of about 3.6 to
    5, and about 3 beyond 5.  Fails loudly (ConvergenceError) if the path
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


@dataclass
class Solved:
    """One spec's record from `solve_fillings`: x, the solution or error it
    returns, and the residual vector (block order) at x: that of `_newton`'s
    last evaluation, or for a spec with every cusp unfilled the read-only
    `CompleteSolution.residual`.  It is None exactly when x is an error."""

    x: object
    residual: Optional[np.ndarray] = None


def solve_fillings(sig: GKSignature, specs: Sequence[FillingSpec], *, out: Optional[list] = None) -> list:
    """`solve_filling` for each of `specs` of one signature, solved
    together.  Returns, per spec, the solution or the DomainError or
    ConvergenceError that `solve_filling` raises for it, with the same
    bits and message: a spec that fails does not touch the others.  An
    entry of `specs` that is an error, such as that of parsing it, is its
    own result.  With `out`, a list, one `Solved` record per spec is
    appended to it.  `solve_complete` gives the complete structure and
    the jet's constants, solved once per process per signature.  A spec
    that the sqrt(7) gate `FillingSpec.is_hyperbolic` refuses, and each
    filled spec whose rounding floor exceeds
    `_CUSP_FLOOR` or `_LENGTH_FLOOR` fill gates, is refused before any
    step.  Every other filled spec runs its `_path`, and the first steps
    of the paths are one stacked `_newton` from their second-order
    starts."""
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
        jets = _complete_jet(sig, cs, [spec for _, spec in filled])
        rows = _linear_rows([pq for _, spec in filled for pq in spec.pairs])
        # every path's first step, to s = 1, as one stacked Newton solve
        x, r, errors = _newton(sig, cs.x0 + jets[:, 0] + 0.5 * jets[:, 1], rows, _FILL_TOL)
        for j, (i, spec) in enumerate(filled):
            spec_rows = [a[k * j:k * j + k] for a in rows]
            records[i] = Solved(*_path(sig, cs, spec, jets[j], spec_rows, (x[j], r[j], errors[j])))
    if out is not None:
        out.extend(records)
    return [rec.x for rec in records]


def _path(sig: GKSignature, cs: CompleteSolution, spec: FillingSpec, jet, rows, first=None):
    """The continuation of the canonical spec alone, from the complete
    solution cs at s = 0, where its jet is (dx/ds, d2x/ds2) and its linear
    block rows at s = 1 are `rows` (`_linear_rows` of its pairs), up to
    s = 1: the solution and its last Newton residual vector, or the error
    that stopped it and None.  `first`, when given, is the Newton result
    (x, r, error) of the first step, taken from a stacked solve, and
    stands for that step's `_newton`.

    A plain predictor-corrector.  The first step goes to s = 1.  Each
    step predicts the next s from the last solved point (s, x) plus the
    change of the jet's Taylor polynomial, x + (s' - s) x' + (s'^2 - s^2)
    x''/2, which from s = 0 is the second-order start x0 + x' + x''/2,
    and corrects it with `_newton`: one step short of s = 1, to
    `_FILL_TOL` at s = 1.  A failed step halves the step; below 1e-4 the
    path ends in a ConvergenceError that names the t of its last solved
    point and the last failure's residual.  Its fillings passed the
    sqrt(7) gate and the floor check of `solve_fillings`: a first step
    fails for a start too far out, or rarely for rounding near the
    floors."""
    L, S, o = rows
    dx, ddx = jet
    s, ds, x = 0.0, 1.0, cs.x0
    while s < 1.0:
        s_next = min(1.0, s + ds)
        if first is None:
            o_s = o.copy()
            o_s[:, 11] *= s_next
            guess = x + (s_next - s) * dx + (0.5 * (s_next * s_next - s * s)) * ddx
            tol = _FILL_TOL if s_next == 1.0 else None
            (x_next,), (r,), (exc,) = _newton(sig, guess[None], (L, S, o_s), tol)
        else:
            (x_next, r, exc), first = first, None
        if isinstance(exc, DomainError):
            return exc, None
        if exc is not None:
            ds /= 2.0
            if ds < 1e-4:
                text = "g=%d k=%d slopes %s: continuation step underflow at t=%g, residual %g" % (
                    sig.g, sig.k, ",".join(map(slope_text, spec.pairs)), 1.0 / s if s else math.inf, exc.residual
                )
                return ConvergenceError(text, exc.residual), None
            continue
        x, s = x_next, s_next
    return x, r


# ---------------------------------------------------------------------------
# tangent space and the boundary-bending curve


def _tangent_block(t: float, x1, x2) -> np.ndarray:
    """The (2, 2, 3) cusp block of a tangent vector at the complete
    structure, [x1, x2, x3, t x1, t x2, t x3, -x1, -x2, -x3, -t x1, -t x2,
    -t x3] flat, with x3 = -x1 - x2 and t = sqrt(3) cot(alpha_bar); for
    arrays x1, x2 of shape (k,), the (k, 2, 2, 3) blocks of k cusps."""
    xs = np.array([x1, x2, -x1 - x2]).T
    return (np.array([[1.0], [t], [-1.0], [-t]]) * xs[..., None, :]).reshape(np.shape(x1) + (2, 2, 3))


def _curvature_blocks(alpha_bar: float) -> np.ndarray:
    """The (3, 12) curvature blocks N at the complete solution of
    alpha_bar, one row per monomial x1^2, x1 x2, x2^2 of a `_tangent_block`
    of (x1, x2): the solution of A0 N^T = [-kappa K; -mu M].  A0 is the
    block of a complete cusp at x0; with a = alpha_bar, its length row of
    apex j reads c1 (y_alpha^{j+1} + y_alpha^{j+2}) + c2 y_gamma^j on its
    tetrahedron, and its sine rows j = 0, 1 read c3 times the alphas and
    c4 times the gammas of apex j minus those of apex j+1 on both
    tetrahedra:

        c1 = -(3/2) csc^2(a) cot(a),  c2 = -(sqrt(3)/2) csc^2(a),
        c3 = (3/4) sin(a) cos(a),     c4 = (sqrt(3)/4) sin^2(a),
        kappa = (1 - 4 cos^2 a) / (2 sin^4 a),  mu = -(3/2) (1 + 4 cos^2 a).

    The right-hand side is minus the second derivative of the rows along
    the tangent: on the length rows of both tetrahedra kappa K_j, the
    monomial coefficients of x_j^2 + 2 x_{j+1} x_{j+2}, on the sine rows
    mu M_j, those of x_j^2 - x_{j+1}^2; the other rows are flat.

    Swapping the cusp's two tetrahedra maps the length, ideal-vertex and
    sine rows of A0 to themselves and negates its cusp rows u' and v' and
    the tangent block, so the right-hand side stays.  Both tetrahedra of N
    thus get the same six values (alpha, gamma); u' and v' vanish on them,
    so N also solves a filled cusp's block, whose rows are p u' + q v'.
    Summing the length rows gives sum(alpha) = 0, as sum(K_j) = 0 and
    sum(gamma) = 0, so beta'' = 0; each length row -c1 alpha_j + c2
    gamma_j = -kappa K_j then gives gamma_j, and the sine rows give
    alpha_j - alpha_{j+1}, with pivot 2 c3 + 2 c4 c1 / c2 = 3 sin a cos a."""
    sa, ca = math.sin(alpha_bar), math.cos(alpha_bar)
    c1, c2, c4 = -1.5 * ca / sa ** 3, -0.5 * math.sqrt(3.0) / (sa * sa), 0.25 * math.sqrt(3.0) * sa * sa
    kappa, mu = (1.0 - 4.0 * ca * ca) / (2.0 * sa ** 4), -1.5 * (1.0 + 4.0 * ca * ca)
    e, pivot = 2.0 * c4 * kappa / c2, 3.0 * sa * ca
    rows = []
    # per monomial x1^2, x1 x2, x2^2, its coefficients K_j (j = 0..2) and M_j (j = 0, 1)
    Ks = ((1.0, -2.0, 1.0), (-2.0, -2.0, 4.0), (-2.0, 1.0, 1.0))
    Ms = ((1.0, -1.0), (0.0, -2.0), (-1.0, 0.0))
    for K, M in zip(Ks, Ms):
        # alpha_j - alpha_{j+1}, then the alphas, whose sum is zero
        d0, d1 = [(e * (K[j] - K[j + 1]) - mu * M[j]) / pivot for j in (0, 1)]
        alpha = [(2.0 * d0 + d1) / 3.0, (d1 - d0) / 3.0, (-d0 - 2.0 * d1) / 3.0]
        gamma = [(c1 * a - kappa * k) / c2 for a, k in zip(alpha, K)]
        rows.append((alpha + gamma) * 2)
    return np.array(rows)


def _complete_jet(sig: GKSignature, cs: CompleteSolution, specs) -> np.ndarray:
    """The closed-form tangent dx/ds and curvature d2x/ds2 at s = 0 of the
    continuation of each of `specs` to its filling, from the complete
    solution cs: an array of shape (len(specs), 2, 12k+1).

    There v = omega u, omega = exp(2 pi i / 3), so a filled cusp moves with
    du/ds = 2 pi i / (p + q omega): its tangent block is the
    `_tangent_block` of

        (x1, x2) = (2q - p, -(p + q)) pi / (2 t (p^2 - pq + q^2)),

    and unfilled cusps and beta stay put.  The system is linear in s, so
    J d2x/ds2 = -F_xx[dx, dx], and its solution is, per filled cusp,
    [x1^2, x1 x2, x2^2] @ N (`_curvature_blocks`), zero on unfilled cusps
    and on beta.  All specs are computed at once, elementwise over their
    cusps and with one matmul per spec's (k, 3) monomials, so each spec
    has the bits it gets alone."""
    t, N = cs.cot_scale, cs.curvature
    n, k = len(specs), sig.k
    pairs = [pq for spec in specs for pq in spec.pairs]
    filled = np.array([pq is not None for pq in pairs], dtype=bool)
    p, q = np.array([pq or (1.0, 0.0) for pq in pairs], dtype=float).reshape(-1, 2).T
    f = math.pi / (2.0 * t * (p * p - p * q + q * q))
    x1, x2 = np.where(filled, (2.0 * q - p) * f, 0.0), np.where(filled, -(p + q) * f, 0.0)
    jet = np.zeros((n, 2, sig.n_coords))
    jet[:, 0, :-1] = _tangent_block(t, x1, x2).reshape(n, 12 * k)
    # C order: each spec's (k, 3) slice is contiguous, as its array alone is, so
    # its matmul takes the same BLAS path (a strided slice changed bits at k = 1)
    jet[:, 1, :-1] = (np.stack([x1 * x1, x1 * x2, x2 * x2], axis=-1).reshape(n, k, 3) @ N).reshape(n, 12 * k)
    return jet


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
    -sin(alpha_bar)) and its curvature (`_curvature_blocks`), which keeps
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
    from the second-order start solves the square system to 1e-12: on
    cusp 0, x_2 - x_3 and the pin; on cusp c >= 1, alpha_0 - alpha_1 and
    alpha_1 - alpha_2 of its first tetrahedron."""
    cs = solve_complete(sig)
    first, second = cs.varsigma
    L, S, o = _linear_rows([None] * sig.k)
    L[:, 10:12], S[:, 10:12], o[:, 10:12] = 0.0, 0.0, 0.0
    L[0, 10, 1:3] = L[1:, 11, 1:3] = L[1:, 10, 0:2] = (1.0, -1.0)
    L[0, 11, 0], L[0, 11, 6] = 1.0, -1.0
    o[0, 11] = 4.0 * math.sin(cs.alpha_bar) * t
    x, _, (exc,) = _newton(sig, (cs.x0 + t * first + 0.5 * t * t * second)[None], (L, S, o), 1e-12)
    if exc is not None:
        raise exc
    return x[0]
