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
log-holonomies (u, v) cut it down to isolated points.  A Newton
iteration locates them from the second-order start at the complete
solution, on the closed-form jet, tangent and curvature, of the
coefficient continuation to its filling (`_complete_jet`, with no linear
solve); that continuation is also the fallback path when the one solve
fails.

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
point gets the same floating-point results as when it is solved alone;
`residuals` takes such a stack of points too.  `jacobian` scatters the
same entries into the dense (10k+1) x (12k+1) public form.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# the solver's failures are defined in hyptrig, beside DomainError, and
# re-exported here under the names they have always had
from .hyptrig import SQRT7, ContinuationError, ConvergenceError, DomainError, FillingSpec, slope_text

# working margin keeping iterates strictly inside (0, pi)
_CLIP = 1e-8
_MAX_ITER = 25
# residual sup-norm a filling is solved to
_FILL_TOL = 1e-10
# weighted merit (see `_newton`) a continuation point short of the filling
# is solved to: it only feeds the next predictor, whose residual is about 1
_MID_TOL = 1e-3
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


@dataclass(frozen=True)
class CompleteSolution:
    alpha_bar: float
    beta_bar: float
    x0: np.ndarray


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
    # the structure rows: every cusp block of x0 is the same block, so rows
    # 0-9 of the last one stand for all k, beside the total angle
    r, _ = _evaluate(GKSignature(sig.g - k + 1, 1), x0[None, -13:], _COMPLETE_ROWS)
    norm = max(float(np.abs(r[0, :10]).max()), abs(6.0 * k * a + 6.0 * m * b - 2.0 * math.pi))
    # the length rows cannot beat the evaluation noise of their own scale
    if norm > max(1e-12, 64.0 * _EPS * abs(edge_cosh(b))):
        raise ConvergenceError("complete solution residual %g" % norm, norm)
    if not (a < b < 2.0 * a <= math.pi / 3.0 + 1e-15):
        raise ConvergenceError("complete solution violates the angle inequalities")
    return CompleteSolution(alpha_bar=a, beta_bar=b, x0=x0)


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


_COMPLETE_ROWS = _linear_rows([None])


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
    """The 10k+1 structure residuals at x (layout in the module docstring),
    or the (N, 10k+1) residuals of N >= 1 points x of shape (N, 12k+1),
    each with the bits it gets alone."""
    x = np.asarray(x, dtype=float)
    pts = np.array([check_coords(sig, p) for p in x]) if x.ndim == 2 else check_coords(sig, x)[None]
    r, _ = _evaluate(sig, pts, _linear_rows([None] * sig.k * len(pts)))
    return _structure_rows(r.T, sig.k).T.reshape(x.shape[:-1] + (sig.n_residuals,))


def jacobian(sig: GKSignature, x) -> np.ndarray:
    """Analytic Jacobian of `residuals`: the Newton blocks, scattered dense."""
    _, blocks = _evaluate(sig, check_coords(sig, x)[None], _linear_rows([None] * sig.k))
    A, dbeta = blocks()
    return _structure_rows(_dense(sig, A, dbeta[0]), sig.k)


# ---------------------------------------------------------------------------
# log-holonomies and Dehn coefficients


def uv(x, cusp: int) -> Tuple[complex, complex]:
    """Log-dilations (u, v) of the two marked peripheral curves of `cusp`
    (0-based), read off the gamma angles of its tetrahedron pair."""
    gA, gB = cusp_angles(x, cusp)[:, 1].tolist()
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
    except np.linalg.LinAlgError as exc:
        if len(r) == 1:
            return np.zeros_like(r), {0: exc}
    k, step, failed = sig.k, np.zeros_like(r), {}
    for i in range(len(r)):
        try:
            step[i] = _block_step(sig, r[i:i + 1], A[k * i:k * i + k], dbeta[i:i + 1])[0]
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
    return step, failed


def _newton(sig: GKSignature, x0: np.ndarray, rows, tol: float):
    """Newton with block-arrow steps on N square systems at once, from
    the points x0 of shape (N, 12k+1), whose linear block rows are `rows`
    (as for `_evaluate`), to the one tolerance `tol`.  With `tol` at
    `_FILL_TOL` or tighter the points are answers: each is solved until
    its weighted merit (below) and its plain residual sup-norm are both
    below `tol`.  A looser `tol` is for points that only feed the next
    predictor of a continuation: each stops at its first iterate, after
    at least one step, whose weighted merit is below `tol`.  Returns the
    points, the function giving their Newton blocks (A, dbeta) from the
    last evaluation, and per point None or the error that stopped it: a
    ConvergenceError, or `check_coords`'s DomainError for a point that is
    not a number.

    Each point takes the steps it takes alone, every full step, clipped
    into the open angle box.  A point that has converged or stopped
    rides along with a zero step, so that every evaluation covers all N
    points and the last one holds the blocks of each.  The weighted merit
    is the sup-norm with each length row divided by |edge_cosh(beta)| at
    x0: those rows have that scale, about 4e4 at g = 150, and undivided
    they would drown the others.  A point whose merit did not fall and
    whose step left its bits as they were has stalled: every later step
    would be the same."""
    x = _clip(np.asarray(x0, dtype=float))
    n_pts, k = len(x), sig.k
    r, blocks = _evaluate(sig, x, rows)
    weight = np.ones(r.shape)
    for i, b in enumerate(x[:, -1].tolist()):
        weight[i, :-1].reshape(k, 12)[:, :6] = 1.0 / max(1.0, abs(edge_cosh(b)))
    merit = np.abs(weight * r).max(axis=1).tolist()
    # after `_clip` a point has a finite merit, or a NaN merit and a NaN angle
    errors = [DomainError(_OUTSIDE_BOX) if m != m else None for m in merit]

    # a point solved only to predict from takes at least one step
    loose = tol > _FILL_TOL

    def done(m, ri):
        # weight <= 1, so m < tol is necessary and the sup-norm need only be taken then
        return m < tol and (loose or np.abs(ri).max() < tol)

    running = [i for i in range(n_pts) if errors[i] is None and (loose or not done(merit[i], r[i]))]
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
            errors[i] = ConvergenceError("singular Jacobian: %s" % exc, float(np.abs(r[i]).max()))
        xn = _clip(x - step)
        rn, blocks = _evaluate(sig, xn, rows)
        mn = np.abs(weight * rn).max(axis=1).tolist()
        for i in running:
            if errors[i] is not None or mn[i] < merit[i]:
                continue
            if mn[i] != mn[i]:
                errors[i] = DomainError(_OUTSIDE_BOX)
            elif (xn[i] == x[i]).all():
                norm = float(np.abs(r[i]).max())
                errors[i] = ConvergenceError("Newton stalled at residual %g" % norm, norm)
        x, r, merit = xn, rn, mn
        running = [i for i in running if errors[i] is None and not done(merit[i], r[i])]
    else:
        for i in running:
            norm = float(np.abs(r[i]).max())
            errors[i] = ConvergenceError(
                "no convergence: residual %g after %d iterations" % (norm, _MAX_ITER), norm
            )
    return x, blocks, errors


def _hermite(s_next: float, s: float, x: np.ndarray, dx: np.ndarray, prev, ddx) -> np.ndarray:
    """The path's value at s_next, extrapolated from the point (s, x) with
    slope dx: the cubic Hermite through it and prev = (s0, x0, dx0), or,
    when prev is None, the Taylor step of second order with curvature ddx."""
    guess = x + (s_next - s) * dx
    if prev is None:
        return guess + (0.5 * (s_next - s) ** 2) * ddx
    s0, x0, dx0 = prev
    h = s - s0
    z = (s_next - s) / h
    guess += z * z * ((3.0 + 2.0 * z) * (x0 - x + h * dx) - (1.0 + z) * h * (dx - dx0))
    return guess


def solve_filling(sig: GKSignature, spec: FillingSpec, *, check_length: bool = True) -> np.ndarray:
    """Solve the square 12k+1 system: structure residuals plus, per cusp,
    p*u + q*v = 2*pi*i (filled) or u = 0 (complete), to a residual
    sup-norm below 1e-10.  Declared range: g <= 200 and k <= 64, with
    slopes of length >= sqrt(7) and max(|p|, |q|) up to 3e5, where 2,400
    seeded draws with every cusp filled all solve.  Beyond it a cusp row
    rounds in steps of about (|p| + |q|) eps and a length row in steps of
    edge_cosh(beta) eps; a filling with the first above 4 fill gates
    (9876543/1) or the second above 1.05 (g >= 510 at k = 1) is refused
    with a DomainError.  Closer to the gate rounding decides a few: 5 of
    110 one-cusp draws at 1.3 to 4 gates of the first failed, and 9 of
    904 cases at g = 440 to 520 (0.76 to 1.05 gates of the second).

    Filled coefficients are continued in s = 1/t along the rows
    p*u + q*v = 2*pi*i*s (the targets (t*p, t*q)) from the complete
    structure x0 at s = 0, where the path's tangent x' and curvature x''
    are in closed form (`_complete_jet`), with no linear solve.  A
    filling with every slope of length >= sqrt(7) is one Newton solve at
    s = 1 from the second-order start x0 + x' + x''/2: 5 block solves at
    length sqrt(7), 4 at lengths of about 3.6 to 5, and about 3 beyond 5.
    It fails, after its 25 iterations, for 49 of the README's 1,200
    every-cusp draws up to 3e5, all at k >= 16; those, and a shorter
    slope, go to the fallback `_path`, which steps s from 0 with step
    halving, from 1/2 after a failure (a median of 30 to 55 block
    solves).  Fails loudly (ContinuationError) if the path cannot reach
    s = 1.  With `check_length`, a slope shorter than sqrt(7) is a
    DomainError.  This is `solve_fillings` on the one spec.
    """
    (x,) = solve_fillings(sig, [spec], check_length=check_length)
    if isinstance(x, Exception):
        raise x
    return x


def solve_fillings(sig: GKSignature, specs: Sequence[FillingSpec], *, check_length: bool = True) -> list:
    """`solve_filling` for each of `specs` of one signature, solved
    together.  Returns, per spec, the solution or the DomainError or
    ConvergenceError that `solve_filling` raises for it, with the same
    bits and message: a spec that fails does not touch the others.
    `solve_complete` and the jet's `_curvature_blocks` run once.  Each
    filled spec whose rounding floor exceeds `_CUSP_FLOOR` or
    `_LENGTH_FLOOR` fill gates is refused there, before any step.  The specs whose slopes all have
    length >= sqrt(7) take their one step to s = 1 as one stacked
    `_newton` from their second-order starts; each spec with a shorter
    slope, and each whose stacked step failed, then runs its `_path`
    alone."""
    out = [None] * len(specs)
    todo = []
    for i, spec in enumerate(specs):
        if len(spec.pairs) != sig.k:
            out[i] = DomainError("spec has %d cusps, signature has %d" % (len(spec.pairs), sig.k))
            continue
        spec = spec.canonicalized()
        lmin = spec.min_filled_length()
        if check_length and not spec.is_hyperbolic():
            out[i] = DomainError("slope of length %.6g below the hyperbolicity threshold sqrt(7)" % lmin)
            continue
        todo.append((i, spec, lmin))
    if not todo:
        return out
    try:
        cs = solve_complete(sig)
    except ConvergenceError as exc:
        for i, _, _ in todo:
            out[i] = exc
        return out
    length_floor = edge_cosh(cs.beta_bar) * _EPS
    filled = []
    for i, spec, lmin in todo:
        if lmin is None:
            out[i] = cs.x0.copy()
            continue
        pq = max(filter(None, spec.pairs), key=lambda s: abs(s[0]) + abs(s[1]))
        cusp_floor = (abs(pq[0]) + abs(pq[1])) * _EPS
        if cusp_floor > _CUSP_FLOOR * _FILL_TOL:
            out[i] = DomainError(
                "slope %s: cusp-row rounding floor (|p| + |q|) eps = %.3g is over %g times the gate %g"
                % (slope_text(pq), cusp_floor, _CUSP_FLOOR, _FILL_TOL)
            )
        elif length_floor > _LENGTH_FLOOR * _FILL_TOL:
            out[i] = DomainError(
                "g=%d k=%d: length-row rounding floor edge_cosh(beta) eps = %.3g is over %g times the gate %g"
                % (sig.g, sig.k, length_floor, _LENGTH_FLOOR, _FILL_TOL)
            )
        else:
            filled.append((i, spec, lmin))
    if not filled:
        return out
    jets = _complete_jet(sig, cs, [spec for _, spec, _ in filled])
    # the specs whose first step in s, min(1, lmin / sqrt(7)), reaches s = 1:
    # one stacked Newton solve from their second-order starts
    one = [j for j, (_, _, lmin) in enumerate(filled) if lmin >= SQRT7]
    first = {}
    if one:
        guess = np.array([cs.x0 + jets[j][0] + 0.5 * jets[j][1] for j in one])
        rows = _linear_rows([pq for j in one for pq in filled[j][1].pairs])
        x, _, errors = _newton(sig, guess, rows, _FILL_TOL)
        first = {j: x_j if exc is None else exc for j, x_j, exc in zip(one, x, errors)}
    for j, (i, spec, lmin) in enumerate(filled):
        x = first.get(j)
        if x is None:
            x = _path(sig, cs, spec, jets[j], lmin / SQRT7)
        elif isinstance(x, ConvergenceError):
            x = _path(sig, cs, spec, jets[j], 0.5, x.residual)
        out[i] = x
    return out


def _path(sig: GKSignature, cs: CompleteSolution, spec: FillingSpec, jet, ds: float, resid=None):
    """The fallback of the one-step solve of `solve_fillings`: the
    continuation of the canonical spec alone, from the complete solution
    cs at s = 0, where its jet is (dx/ds, d2x/ds2), in steps of `ds` up to
    s = 1; the solution, or the error that stopped it.  `resid` is the
    residual of the failed stacked step that it takes over from, if any.

    Each step is one `_newton` at the next s, from the Taylor polynomial
    of second order of the jet when it leaves s = 0, and from the cubic
    Hermite through the last two points and their tangents after.  A
    point short of s = 1 only feeds the next predictor, so it is solved
    only to `_MID_TOL`, and its tangent is one block step with the blocks
    of Newton's last iterate.  A failed step halves ds; below 1e-4 the
    path ends in a ContinuationError with the last failure's residual.
    Its fillings passed the floor check of `solve_fillings`: a step fails
    for the geometry (a slope below sqrt(7)), for a start too far out, or
    rarely for rounding near the floors."""
    k = sig.k
    # s scales the 2 pi on row 11 of the filled cusps, so every tangent
    # dx/ds solves J dx/ds = ds_rhs
    L, S, o = _linear_rows(spec.pairs)
    ds_rhs = np.zeros((1, sig.n_coords))
    ds_rhs[0, :-1].reshape(k, 12)[:, 11] = o[:, 11]
    s, x, prev = 0.0, cs.x0, None
    dx, ddx = jet

    def failure(text):
        if resid is not None:
            text += ", residual %g" % resid
        text = "g=%d k=%d slopes %s: %s" % (sig.g, k, ",".join(map(slope_text, spec.pairs)), text)
        return ContinuationError(text, 1.0 / s if s else None, resid)

    while s < 1.0:
        s_next = min(1.0, s + ds)
        o_s = o.copy()
        o_s[:, 11] *= s_next
        guess = _hermite(s_next, s, x, dx, prev, ddx)[None]
        (x_next,), blocks, (exc,) = _newton(sig, guess, (L, S, o_s), _FILL_TOL if s_next == 1.0 else _MID_TOL)
        if isinstance(exc, DomainError):
            return exc
        if exc is not None:
            resid = exc.residual
            ds /= 2.0
            if ds < 1e-4:
                return failure("continuation step underflow at t=%g" % (1.0 / s if s else math.inf))
            continue
        prev, x, s = (s, x, dx), x_next, s_next
        if s < 1.0:
            step, failed = _block_steps(sig, ds_rhs, *blocks())
            if failed:
                return failure("singular tangent: %s" % failed[0])
            dx = step[0]
    return x


# ---------------------------------------------------------------------------
# tangent space and the boundary-bending curve


def _tangent_block(t: float, x1, x2) -> np.ndarray:
    """The (2, 2, 3) cusp block of a tangent vector at the complete
    structure, [x1, x2, x3, t x1, t x2, t x3, -x1, -x2, -x3, -t x1, -t x2,
    -t x3] flat, with x3 = -x1 - x2 and t = sqrt(3) cot(alpha_bar); for
    arrays x1, x2 of shape (k,), the (k, 2, 2, 3) blocks of k cusps."""
    xs = np.array([x1, x2, -x1 - x2]).T
    return (np.array([[1.0], [t], [-1.0], [-t]]) * xs[..., None, :]).reshape(np.shape(x1) + (2, 2, 3))


def _cot_scale(alpha_bar: float) -> float:
    """t = sqrt(3) cot(alpha_bar) of `_tangent_block`."""
    return math.sqrt(3.0) * math.cos(alpha_bar) / math.sin(alpha_bar)


def _curvature_blocks(cs: CompleteSolution) -> np.ndarray:
    """The (3, 12) curvature blocks N at the complete solution cs, one row
    per monomial x1^2, x1 x2, x2^2 of a `_tangent_block` of (x1, x2): the
    solution of A0 N^T = [-kappa K; -mu M].  A0 is the block of a complete
    cusp at x0; with a = alpha_bar, its length row of apex j reads c1
    (y_alpha^{j+1} + y_alpha^{j+2}) + c2 y_gamma^j on its tetrahedron, and
    its sine rows j = 0, 1 read c3 times the alphas and c4 times the
    gammas of apex j minus those of apex j+1 on both tetrahedra:

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
    sa, ca = math.sin(cs.alpha_bar), math.cos(cs.alpha_bar)
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


def _complete_jet(sig: GKSignature, cs: CompleteSolution, specs) -> list:
    """Per spec, the closed-form tangent dx/ds and curvature d2x/ds2 at
    s = 0 of the continuation to its filling, from the complete solution cs.

    There v = omega u, omega = exp(2 pi i / 3), so a filled cusp moves with
    du/ds = 2 pi i / (p + q omega): its tangent block is the
    `_tangent_block` of

        (x1, x2) = (2q - p, -(p + q)) pi / (2 t (p^2 - pq + q^2)),

    and unfilled cusps and beta stay put.  The system is linear in s, so
    J d2x/ds2 = -F_xx[dx, dx], and its solution is, per filled cusp,
    [x1^2, x1 x2, x2^2] @ N (`_curvature_blocks`), zero on unfilled cusps
    and on beta.  Each spec's jet is computed alone, so that it has the
    same bits in any batch."""
    t, N = _cot_scale(cs.alpha_bar), _curvature_blocks(cs)
    out = []
    for spec in specs:
        x1, x2 = np.zeros((2, sig.k))
        for c, pq in enumerate(spec.pairs):
            if pq is not None:
                p, q = pq
                f = math.pi / (2.0 * t * (p * p - p * q + q * q))
                x1[c], x2[c] = (2.0 * q - p) * f, -(p + q) * f
        jet = np.zeros((2, sig.n_coords))
        jet[0, :-1] = _tangent_block(t, x1, x2).ravel()
        jet[1, :-1] = (np.array([x1 * x1, x1 * x2, x2 * x2]).T @ N).ravel()
        out.append((jet[0], jet[1]))
    return out


def tangent_basis(sig: GKSignature) -> np.ndarray:
    """Closed-form basis (2 vectors per cusp) of the tangent space of the
    variety at the complete solution: per cusp block,

        sqrt(3) cos(a) x_i = sin(a) x_{i+3}   (i = 1, 2, 3),
        x_i + x_{i+6} = 0                     (i = 1..6),
        x_1 + x_2 + x_3 = 0,

    and last coordinate zero: the `_tangent_block`s of (x1, x2) = (1, 0)
    and (0, 1)."""
    t = _cot_scale(solve_complete(sig).alpha_bar)
    basis = np.zeros((2 * sig.k, sig.n_coords))
    for c in range(sig.k):
        angle_blocks(basis[2 * c])[c] = _tangent_block(t, 1.0, 0.0)
        angle_blocks(basis[2 * c + 1])[c] = _tangent_block(t, 0.0, 1.0)
    return basis


def varsigma_derivatives(sig: GKSignature) -> Tuple[np.ndarray, np.ndarray]:
    """First and second derivative vectors at t=0 of the distinguished
    curve through the complete solution (normalization: the second
    derivatives of coordinates 0 and 6 agree), supported on the first
    cusp block: the `_tangent_block` of (x1, x2) = (2 sin(alpha_bar),
    -sin(alpha_bar)) and its curvature (`_curvature_blocks`), which keeps
    x_2 = x_3 and x_1 = x_7 as the curve does."""
    cs = solve_complete(sig)
    s = math.sin(cs.alpha_bar)
    first, second = np.zeros((2, sig.n_coords))
    first[:12] = _tangent_block(_cot_scale(cs.alpha_bar), 2.0 * s, -s).ravel()
    second[:12] = np.array([4.0 * s * s, -2.0 * s * s, s * s]) @ _curvature_blocks(cs)
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
    x, _, (exc,) = _newton(sig, (cs.x0 + t * first + 0.5 * t * t * second)[None], (L, S, o), 1e-12)
    if exc is not None:
        raise exc
    return x[0]
