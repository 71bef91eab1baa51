import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgk import commensurability_xk as cx
from mgk import slopes_symmetry as ss
from mgk.deformation import (
    GKSignature,
    angle_blocks,
    dehn_coefficients,
    residuals,
    solve_complete,
    solve_filling,
    uv,
)
from mgk.hyptrig import DomainError, FillingSpec, slope_length_pair

from conftest import d6_matrix, random_filled_points, solved_point

# with numpy unimportable and the package's __init__ not run, the slope
# model and the integer layer load, and they do not load the solver
STANDALONE = """
import sys, types
sys.modules["numpy"] = None
pkg = types.ModuleType("mgk")
pkg.__path__ = [sys.argv[1]]
sys.modules["mgk"] = pkg
import mgk.hyptrig, mgk.slopes_symmetry as ss
assert "mgk.deformation" not in sys.modules, sorted(sys.modules)
a, b = ss.make_slope_set(2, [(3, 1), None]), ss.make_slope_set(2, [None, (1, 3)])
assert ss.slope_sets_equivalent(a, b, orientation_preserving=False) is not None
"""


def test_integer_layer_stands_alone():
    src = Path(ss.__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", STANDALONE, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_slope_canonicalization_and_primitivity():
    assert ss.Slope.of(-3, 1) == ss.Slope(3, -1)
    assert ss.Slope.of(0, -1) == ss.Slope(0, 1)
    with pytest.raises(DomainError):
        ss.Slope(4, 2)
    with pytest.raises(DomainError):
        ss.Slope(-1, 0)


def test_slope_lengths():
    # the length the short-slope gate uses, on canonical slopes
    def length(s):
        assert slope_length_pair(s.p, s.q) ** 2 == pytest.approx(s.length_sq, rel=1e-15)
        return slope_length_pair(s.p, s.q)

    assert length(ss.Slope(1, 0)) == 1.0
    assert abs(length(ss.Slope(2, 1)) - math.sqrt(3)) < 1e-15
    assert abs(length(ss.Slope.of(19, 11)) - math.sqrt(273)) < 1e-13
    assert abs(length(ss.Slope.of(16, -1)) - math.sqrt(273)) < 1e-13


def test_d6_generator_formulas():
    r, s = ss.D6Element(1), ss.D6Element(0, True)
    assert ss.d6_act(r, ss.Slope(7, 2)) == ss.Slope(5, 7)
    assert ss.d6_act(r, ss.Slope.of(19, 11)) == ss.Slope(8, 19)
    assert ss.d6_act(s, ss.Slope(7, 2)) == ss.Slope.of(5, -2)


_D6_ALL = [ss.D6Element(m, f) for m in range(6) for f in (False, True)]


def d6_product(a, b):
    """The element a * b (b applied first), read off the integer matrices."""
    m = d6_matrix(a) @ d6_matrix(b)
    return next(e for e in _D6_ALL if np.array_equal(d6_matrix(e), m))


def d6_inverse(e):
    return next(f for f in _D6_ALL if d6_product(f, e) == ss.D6Element.identity())


def test_d6_group_law():
    r, s = ss.D6Element(1), ss.D6Element(0, True)
    assert d6_product(s, s) == ss.D6Element.identity()
    e = ss.D6Element.identity()
    for _ in range(6):
        e = d6_product(r, e)
    assert e == ss.D6Element.identity()
    # s r s = r^-1, and rot is read mod 6
    assert d6_product(d6_product(s, r), s) == ss.D6Element(-1) == ss.D6Element(5)
    # d6_act is an action: acting by b and then by a is acting by a * b
    slopes = primitive_slopes(49)
    for a, b in itertools.product(_D6_ALL, repeat=2):
        ab = d6_product(a, b)
        for x in slopes:
            assert ss.d6_act(a, ss.d6_act(b, x)) == ss.d6_act(ab, x)


@pytest.mark.parametrize("refl", [False, True])
def test_d6_inverse(refl):
    # a reflection is its own inverse; a rotation's is the opposite rotation
    for rot in range(6):
        e = ss.D6Element(rot, refl)
        inv = d6_inverse(e)
        assert inv == (e if refl else ss.D6Element(-rot))
        assert d6_product(e, inv) == ss.D6Element.identity()
        assert (inv == e) == (refl or rot in (0, 3))
        for x in primitive_slopes(49):
            assert ss.d6_act(inv, ss.d6_act(e, x)) == x
            assert ss.d6_act(e, ss.d6_act(inv, x)) == x


def test_slope_set_and_symmetry_validation():
    with pytest.raises(DomainError, match="torus index 2 out of range"):
        ss.make_slope_set(2, {2: (3, 1)})
    with pytest.raises(DomainError, match="expected 2 entries"):
        ss.make_slope_set(2, [(3, 1)])
    x = solve_complete(GKSignature(3, 2)).x0
    with pytest.raises(DomainError, match="not a permutation"):
        cx.cusp_permutation(x, [0, 0])
    one = ss.SlopeSetIsometry((0,), (ss.D6Element.identity(),))
    with pytest.raises(DomainError, match="isometry is for 1 tori, point has 2 cusps"):
        cx.sym_act(one, x)


def test_r_orbit_of_meridian():
    r = ss.D6Element(1)
    orbit = set()
    s = ss.Slope(1, 0)
    for _ in range(6):
        orbit.add(s)
        s = ss.d6_act(r, s)
    assert orbit == {ss.Slope(1, 0), ss.Slope(1, 1), ss.Slope(0, 1)}


def test_length_preserved_exactly():
    # integer identity p^2 + q^2 - pq invariant under both generators,
    # asserted on all primitive pairs up to 100
    elems = [ss.D6Element(m, f) for m in range(6) for f in (False, True)]
    mats = [d6_matrix(e) for e in elems]
    for p in range(-100, 101):
        for q in range(-100, 101):
            if math.gcd(abs(p), abs(q)) != 1:
                continue
            lsq = p * p + q * q - p * q
            for m in mats:
                pp, qq = m @ (p, q)
                assert pp * pp + qq * qq - pp * qq == lsq


def test_d6_act_matches_matrices():
    elems = [ss.D6Element(m, f) for m in range(6) for f in (False, True)]
    for p in range(0, 21):
        for q in range(-20, 21):
            if (p == 0 and q != 1) or math.gcd(p, abs(q)) != 1:
                continue
            s = ss.Slope(p, q)
            for e in elems:
                pp, qq = d6_matrix(e) @ (p, q)
                assert ss.d6_act(e, s) == ss.Slope.of(int(pp), int(qq))


def test_classify_short_slopes():
    table = dict(ss.classify_slopes(7))
    assert len(table[1]) == 1 and len(table[1][0]) == 3
    assert len(table[3]) == 1 and len(table[3][0]) == 3
    assert set(table[3][0]) == {ss.Slope.of(1, -1), ss.Slope(1, 2), ss.Slope(2, 1)}
    assert len(table[7]) == 1 and len(table[7][0]) == 6
    # no slopes of squared length 2, 4, 5, 6
    assert set(table) == {1, 3, 7}


def test_classify_273_two_orbits():
    table = dict(ss.classify_slopes(273))
    orbits = table[273]
    assert len(orbits) == 2
    members = [set(o) for o in orbits]
    s1, s2 = ss.Slope.of(19, 11), ss.Slope.of(16, -1)
    assert any(s1 in m for m in members)
    assert any(s2 in m for m in members)
    assert not any(s1 in m and s2 in m for m in members)
    assert all(len(m) == 6 for m in members)


def test_orbit_sizes_up_to_400():
    for lsq, orbits in ss.classify_slopes(400):
        for orb in orbits:
            if lsq in (1, 3):
                assert len(orb) == 3
            else:
                assert len(orb) == 6
            # rotation-only orbits have size 3 for generic slopes
            c6 = d6_act_orbit(orb[0], ss._ROTATIONS)
            assert len(c6) == 3


def test_hyperbolic_filling_check():
    assert not ss.hyperbolic_filling_check(FillingSpec.from_pairs(1, [(2.0, 1.0)]))
    assert ss.hyperbolic_filling_check(FillingSpec.from_pairs(1, [(3.0, 1.0)]))
    assert ss.hyperbolic_filling_check(FillingSpec.unfilled(2))
    # real pairs compare against the threshold directly
    assert ss.hyperbolic_filling_check(FillingSpec.from_pairs(1, [(2.7, 0.1)]))
    assert not ss.hyperbolic_filling_check(FillingSpec.from_pairs(1, [(2.5, 0.1)]))


@pytest.mark.parametrize(
    "pq, hyperbolic",
    [
        # (3, 1) scaled to length sqrt(7) - 5e-13, inside the gate's 1e-12 slack
        ((3.0 * (1.0 - 5e-13 / math.sqrt(7.0)), 1.0 - 5e-13 / math.sqrt(7.0)), True),
        ((3.0, 1.0), True),
        ((2.0, 1.0), False),
    ],
)
def test_hyperbolic_filling_check_agrees_with_solver(pq, hyperbolic):
    sig = GKSignature(2, 1)
    spec = FillingSpec.from_pairs(1, [pq])
    assert ss.hyperbolic_filling_check(spec) is hyperbolic
    if hyperbolic:
        x = solve_filling(sig, spec)
        assert np.max(np.abs(residuals(sig, x))) < 1e-9
    else:
        with pytest.raises(DomainError, match="sqrt\\(7\\)"):
            solve_filling(sig, spec)


def test_slope_sets_equivalent_identity_and_rotation():
    a = ss.make_slope_set(2, {0: (7, 2)})
    w = ss.slope_sets_equivalent(a, a)
    assert w is not None and w.apply(a) == a
    b = ss.make_slope_set(2, {0: (5, 7)})
    w = ss.slope_sets_equivalent(a, b)
    assert w is not None and w.orientation_preserving
    assert w.apply(a) == b


def test_slope_sets_respect_empty_tori():
    a = ss.make_slope_set(2, {0: (3, 1)})
    b = ss.make_slope_set(2, {1: (3, 1)})
    w = ss.slope_sets_equivalent(a, b)
    assert w is not None and w.perm[0] == 1
    c = ss.make_slope_set(2, {0: (3, 1), 1: (3, 1)})
    assert ss.slope_sets_equivalent(a, c) is None


def test_inequivalent_273_pair():
    a = ss.make_slope_set(1, {0: (19, 11)})
    b = ss.make_slope_set(1, {0: (16, -1)})
    assert ss.slope_sets_equivalent(a, b, orientation_preserving=True) is None
    assert ss.slope_sets_equivalent(a, b, orientation_preserving=False) is None


def test_reflection_needs_reflection_witness():
    a = ss.make_slope_set(1, {0: (7, 2)})
    refl = ss.make_slope_set(1, {0: ss.d6_act(ss.D6Element(0, True), ss.Slope(7, 2))})
    assert ss.slope_sets_equivalent(a, refl, orientation_preserving=True) is None
    w = ss.slope_sets_equivalent(a, refl, orientation_preserving=False)
    assert w is not None and not w.orientation_preserving


def isometry_inverse(w):
    """The witness that undoes w: torus perm[i] goes back to i under the
    inverse of local[i]."""
    perm = [0] * len(w.perm)
    for i, j in enumerate(w.perm):
        perm[j] = i
    return ss.SlopeSetIsometry(tuple(perm), tuple(d6_inverse(w.local[i]) for i in perm))


def test_equivalence_witness_invertible():
    a = ss.make_slope_set(3, {0: (3, 1), 1: (5, 1)})
    b = ss.make_slope_set(3, {1: ss.d6_act(ss.D6Element(1), ss.Slope(3, 1)), 2: (5, 1)})
    w = ss.slope_sets_equivalent(a, b)
    assert w is not None and w.apply(a) == b
    assert isometry_inverse(w).apply(b) == a
    w_back = ss.slope_sets_equivalent(b, a)
    assert w_back is not None and w_back.apply(b) == a


def test_enumerate_matches_membership():
    a = ss.make_slope_set(2, {0: (3, 1), 1: (5, 1)})
    orbit = ss.enumerate_equivalent_sets(a)
    assert a in orbit
    for b in orbit:
        assert ss.slope_sets_equivalent(a, b) is not None
    # a reflected set lies outside the orientation-preserving orbit
    refl = ss.make_slope_set(
        2, {0: ss.d6_act(ss.D6Element(0, True), ss.Slope(3, 1)), 1: (5, 1)}
    )
    assert refl not in orbit


def test_enumerate_single_cusp_count():
    a = ss.make_slope_set(1, {0: (3, 1)})
    assert len(ss.enumerate_equivalent_sets(a)) == 3
    empty = ss.make_slope_set(1, {})
    assert ss.enumerate_equivalent_sets(empty) == [empty]


def test_mismatched_tori_counts_raise():
    # slope sets on different numbers of tori are an input error
    with pytest.raises(DomainError):
        ss.slope_sets_equivalent(ss.make_slope_set(2, {}), ss.make_slope_set(3, {}))


# --- the canonical form against the exhaustive search -----------------------


def d6_act_orbit(s, group):
    """Sorted orbit of a slope under `group`, one `d6_act` per element; ()
    for an empty torus."""
    return () if s is None else tuple(sorted({ss.d6_act(e, s) for e in group}))


def _oracle_candidates(orientation_preserving):
    # rotations act on unoriented slopes through the order-3 quotient;
    # with reflections there are six effective classes
    rots = [ss.D6Element(m) for m in range(3)]
    if orientation_preserving:
        return rots
    return rots + [ss.D6Element(m, True) for m in range(3)]


def brute_force_equivalent(a, b, orientation_preserving=True):
    """Search the marked-torus isometry group (permutations semidirect
    local dihedral/rotation factors) for a witness taking `a` onto `b`.
    Exhaustive and exact; returns None if no witness exists."""
    k = len(a)
    cands = _oracle_candidates(orientation_preserving)
    for perm in itertools.permutations(range(k)):
        locals_per_torus = []
        ok = True
        for i in range(k):
            src, dst = a[i], b[perm[i]]
            if (src is None) != (dst is None):
                ok = False
                break
            if src is None:
                locals_per_torus.append(ss.D6Element.identity())
                continue
            match = next((e for e in cands if ss.d6_act(e, src) == dst), None)
            if match is None:
                ok = False
                break
            locals_per_torus.append(match)
        if ok:
            return ss.SlopeSetIsometry(perm, tuple(locals_per_torus))
    return None


def brute_force_orbit(a):
    """Full orbit of a slope set under the orientation-preserving group,
    by brute force; sorted for reproducibility."""
    k = len(a)
    rots = _oracle_candidates(orientation_preserving=True)
    orbit = set()
    for perm in itertools.permutations(range(k)):
        for locs in itertools.product(rots, repeat=k):
            orbit.add(ss.SlopeSetIsometry(perm, locs).apply(a))
    return sorted(orbit, key=lambda sset: tuple((s.p, s.q) if s else (0, 0) for s in sset))


# empty tori, the short orbit of 1/0, both rotation classes of 3/1 (mirror
# images of each other) and the two dihedral orbits of length sqrt(273), so
# that draws repeat orbits and meet reflected and equal-length rivals
_POOL = [None, None] + [
    s for base in ((1, 0), (3, 1), (19, 11), (16, -1)) for s in d6_act_orbit(ss.Slope.of(*base), ss._ISOMETRIES)
]
_ENTRY = st.sampled_from(_POOL)
_D6 = st.builds(ss.D6Element, st.integers(0, 5), st.booleans())


@st.composite
def _slope_set_pairs(draw):
    k = draw(st.integers(1, 5))
    a = tuple(draw(st.lists(_ENTRY, min_size=k, max_size=k)))
    if draw(st.booleans()):
        b = tuple(draw(st.lists(_ENTRY, min_size=k, max_size=k)))
    else:
        # an image of `a`, perhaps with one torus redrawn
        perm = tuple(draw(st.permutations(range(k))))
        local = tuple(draw(st.lists(_D6, min_size=k, max_size=k)))
        b = list(ss.SlopeSetIsometry(perm, local).apply(a))
        if draw(st.booleans()):
            b[draw(st.integers(0, k - 1))] = draw(_ENTRY)
        b = tuple(b)
    return a, b


@settings(max_examples=300, deadline=None)
@given(pair=_slope_set_pairs(), reflections=st.booleans())
def test_canonical_form_matches_brute_force(pair, reflections):
    a, b = pair
    w = ss.slope_sets_equivalent(a, b, orientation_preserving=not reflections)
    oracle = brute_force_equivalent(a, b, orientation_preserving=not reflections)
    assert (w is None) == (oracle is None)
    if w is not None:
        assert w.apply(a) == b
        assert reflections or w.orientation_preserving


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_ENTRY, min_size=1, max_size=4))
def test_enumerate_matches_brute_force_orbit(a):
    assert ss.enumerate_equivalent_sets(tuple(a)) == brute_force_orbit(tuple(a))


@pytest.mark.parametrize("k,h", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (5, 3), (6, 6), (8, 4)])
def test_enumerate_count_formula(k, h):
    # h filled tori carrying one rotation class, the rest empty
    cls = d6_act_orbit(ss.Slope(3, 1), ss._ROTATIONS)
    a = ss.make_slope_set(k, {i: cls[i % 3] for i in range(h)})
    orbit = ss.enumerate_equivalent_sets(a)
    assert len(set(orbit)) == len(orbit)
    expected = math.factorial(k) * 3**h // (math.factorial(h) * math.factorial(k - h))
    assert len(orbit) == expected


# --- integer-pair orbits against the single-element action -----------------


def primitive_slopes(max_len_sq):
    """Every primitive sign-form slope of squared length <= max_len_sq."""
    bound = math.isqrt(4 * max_len_sq // 3) + 2
    return [
        ss.Slope(p, q)
        for p in range(bound + 1)
        for q in range(-bound, bound + 1)
        if (p > 0 or q == 1) and math.gcd(p, abs(q)) == 1 and p * p + q * q - p * q <= max_len_sq
    ]


def oracle_slope_sets_equivalent(a, b, orientation_preserving=True):
    """The canonical-form search on `Slope` objects through `d6_act`: each
    torus keyed by its whole sorted orbit, and each local element the
    first of the group, in order, that carries the slope onto its target."""
    k = len(a)
    group = ss._ROTATIONS if orientation_preserving else ss._ISOMETRIES
    ka = [d6_act_orbit(s, group) for s in a]
    kb = [d6_act_orbit(s, group) for s in b]
    order_a = sorted(range(k), key=ka.__getitem__)
    order_b = sorted(range(k), key=kb.__getitem__)
    if [ka[i] for i in order_a] != [kb[j] for j in order_b]:
        return None
    perm = dict(zip(order_a, order_b))
    local = tuple(
        next(e for e in group if src is None or ss.d6_act(e, src) == b[perm[i]])
        for i, src in enumerate(a)
    )
    return ss.SlopeSetIsometry(tuple(perm[i] for i in range(k)), local)


def test_images_are_d6_act_in_group_order():
    for s in primitive_slopes(1000):
        for refl, group in ((False, ss._ROTATIONS), (True, ss._ISOMETRIES)):
            assert ss._images(s, refl) == [(t.p, t.q) for t in (ss.d6_act(e, s) for e in group)]


@pytest.mark.parametrize("max_len_sq", [1, 7, 273, 1000])
def test_classify_slopes_matches_d6_act_orbits(max_len_sq):
    by_len = {}
    for s in primitive_slopes(max_len_sq):
        by_len.setdefault(s.length_sq, set()).add(d6_act_orbit(s, ss._ISOMETRIES))
    oracle = [(lsq, tuple(sorted(orbits))) for lsq, orbits in sorted(by_len.items())]
    assert ss.classify_slopes(max_len_sq) == oracle


# entries of a slope set: the pool above (empty tori and equal-length
# rivals) or a random primitive slope of squared length up to 10^4
_WIDE_ENTRY = st.one_of(
    _ENTRY,
    st.tuples(st.integers(-115, 115), st.integers(-115, 115))
    .filter(lambda pq: math.gcd(*pq) == 1 and pq[0] ** 2 + pq[1] ** 2 - pq[0] * pq[1] <= 10**4)
    .map(lambda pq: ss.Slope.of(*pq)),
)


@st.composite
def _witnessed_pairs(draw):
    reflections = draw(st.booleans())
    k = draw(st.integers(1, 12))
    a = tuple(draw(st.lists(_WIDE_ENTRY, min_size=k, max_size=k)))
    positive = draw(st.booleans())
    if positive:
        # the image of `a` under a drawn witness of the mode's group, or
        # mostly a negative when one torus is redrawn
        perm = tuple(draw(st.permutations(range(k))))
        local = tuple(
            ss.D6Element(draw(st.integers(0, 5)), reflections and draw(st.booleans()))
            for _ in range(k)
        )
        b = list(ss.SlopeSetIsometry(perm, local).apply(a))
        if draw(st.booleans()):
            positive = False
            b[draw(st.integers(0, k - 1))] = draw(_WIDE_ENTRY)
        b = tuple(b)
    else:
        b = tuple(draw(st.lists(_WIDE_ENTRY, min_size=k, max_size=k)))
    return a, b, reflections, positive


@settings(max_examples=200, deadline=None)
@given(case=_witnessed_pairs())
def test_witness_matches_d6_act_oracle(case):
    # the same verdict and the same witness, perm and local elements both
    a, b, reflections, positive = case
    w = ss.slope_sets_equivalent(a, b, orientation_preserving=not reflections)
    assert w == oracle_slope_sets_equivalent(a, b, orientation_preserving=not reflections)
    if positive:
        assert w is not None and w.apply(a) == b


# --- symmetries acting on the variety ---------------------------------------


def test_generator_transformation_laws():
    sig = GKSignature(2, 1)
    for x in random_filled_points(sig, 3, seed=23):
        u, v = uv(x, 0)
        ur, vr = uv(cx.phi_r(x, 0), 0)
        assert abs(ur + v) < 1e-10 and abs(vr - (u + v)) < 1e-10
        us, vs = uv(cx.phi_s(x, 0), 0)
        assert abs(us + u.conjugate()) < 1e-10
        assert abs(vs - (u.conjugate() + v.conjugate())) < 1e-10
        p, q = dehn_coefficients(x, 0)
        pr, qr = dehn_coefficients(cx.phi_r(x, 0), 0)
        assert abs(pr - (p - q)) < 1e-9 and abs(qr - p) < 1e-9
        ps, qs = dehn_coefficients(cx.phi_s(x, 0), 0)
        assert abs(ps - (p - q)) < 1e-9 and abs(qs + q) < 1e-9


def test_symmetries_preserve_residuals():
    # Equation-set invariance, probed off the variety: the tetra swap and
    # cusp relabelling permute residual entries outright; apex
    # permutations permute every entry except the two sigma difference
    # rows, which transform unimodularly because the underlying
    # sine-product triple is what gets permuted.
    def sine_product(x, c, j):
        # Pi^j = sin a_2c^j sin a_2c+1^j sin g_2c^j sin g_2c+1^j
        return math.prod(math.sin(v) for v in angle_blocks(x)[c, :, :, j].ravel().tolist())

    sig = GKSignature(3, 2)
    x = solved_point(sig, [(5.0, 1.0), (8.0, 3.0)]) + 1e-3  # push off the variety too
    base = np.sort(np.abs(residuals(sig, x)))
    for y in (cx.tetra_swap(x, 0), cx.cusp_permutation(x, [1, 0])):
        assert np.allclose(np.sort(np.abs(residuals(sig, y))), base, atol=1e-13)
    k = sig.k
    non_sigma = list(range(8 * k)) + [10 * k]
    base_ns = np.sort(np.abs(residuals(sig, x)[non_sigma]))
    for y in (
        cx.phi_r(x, 0),
        cx.phi_s(x, 1),
        cx.apex_permutation(x, 0, (1, 0, 2)),
    ):
        assert np.allclose(np.sort(np.abs(residuals(sig, y)[non_sigma])), base_ns, atol=1e-13)
        for c in range(k):
            before = sorted(sine_product(x, c, j) for j in range(3))
            after = sorted(sine_product(y, c, j) for j in range(3))
            assert np.allclose(before, after, atol=1e-15)


def test_sym_act_coefficient_equivariance():
    sig = GKSignature(3, 2)
    x = solved_point(sig, [(5.0, 1.0), (8.0, 3.0)])
    psi = ss.SlopeSetIsometry(
        perm=(1, 0), local=(ss.D6Element(2, False), ss.D6Element(1, True))
    )
    y = cx.sym_act(psi, x)
    d = [np.array(dehn_coefficients(x, c)) for c in range(2)]
    dy = [np.array(dehn_coefficients(y, c)) for c in range(2)]
    for i in range(2):
        expected = d6_matrix(psi.local[i]) @ d[i]
        assert np.max(np.abs(dy[psi.perm[i]] - expected)) < 1e-9


def test_sym_act_identity():
    sig = GKSignature(2, 1)
    x = solved_point(sig, [(5.0, 1.0)])
    ident = ss.SlopeSetIsometry(perm=(0,), local=(ss.D6Element.identity(),))
    assert np.array_equal(cx.sym_act(ident, x), x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7))
def test_symmetries_permute_the_coordinates(seed, k):
    # every variety symmetry moves angles around and computes nothing: its
    # values are those of x, bit for bit, and beta stays in place
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.01, math.pi - 0.01, 12 * k + 1)
    before = x.copy()
    cusp = int(rng.integers(k))
    psi = ss.SlopeSetIsometry(
        tuple(rng.permutation(k).tolist()),
        tuple(ss.D6Element(int(rng.integers(6)), bool(rng.integers(2))) for _ in range(k)),
    )
    images = [
        cx.apex_permutation(x, cusp, tuple(rng.permutation(3).tolist())),
        cx.tetra_swap(x, cusp),
        cx.cusp_permutation(x, rng.permutation(k).tolist()),
        cx.phi_r(x, cusp),
        cx.phi_s(x, cusp),
        cx.sym_act(psi, x),
    ]
    if k % 2 == 1:
        images.append(cx.theta_r(x, cx.XkSignature(k)))
        if k >= 3:
            images.append(cx.tau_13(x, cx.XkSignature(k)))
    for y in images:
        assert np.array_equal(np.sort(y), np.sort(x)) and y[-1] == x[-1]
    assert np.array_equal(x, before)
