import math

import pytest

import tetrahedron as tt
from mgk.deformation import (
    GKSignature,
    angle_blocks,
    solve_complete,
    solve_filling,
)
from mgk.hyptrig import DomainError, FillingSpec

PI3 = math.pi / 3.0


def tet_from_coords(x, l):
    # tetrahedron l = 2c + t is angle_blocks(x)[c, t]
    alphas, gammas = angle_blocks(x).reshape(-1, 2, 3)[l].tolist()
    return tt.TruncatedTetrahedron.one_ideal(alphas, gammas)


def test_validate_compact_regular():
    assert tt.validate(tt.TruncatedTetrahedron.regular_compact(0.55)) == []


def test_validate_one_ideal_symmetric():
    tet = tt.TruncatedTetrahedron.one_ideal((0.4, 0.4, 0.4), (PI3, PI3, PI3))
    assert tt.validate(tet) == []


def test_validate_rejects_bad_ideal_sum():
    tet = tt.TruncatedTetrahedron.one_ideal(
        (0.4, 0.4, 0.4), (math.pi / 2, math.pi / 2, math.pi / 2)
    )
    bad = tt.validate(tet)
    assert bad and "ideal vertex sum" in bad[0]


def test_validate_rejects_fat_vertex():
    tet = tt.TruncatedTetrahedron.one_ideal((1.5, 1.5, 1.5), (PI3, PI3, PI3))
    assert any("angle sum" in b for b in tt.validate(tet))


def test_validate_rejects_out_of_range():
    tet = tt.TruncatedTetrahedron.one_ideal((0.4, -0.4, 0.4), (PI3, PI3, PI3))
    assert any("outside" in b for b in tt.validate(tet))


def test_boundary_edges_symmetric_case():
    sig = GKSignature(2, 1)
    cs = solve_complete(sig)
    tet = tet_from_coords(cs.x0, 0)
    vals = tt.boundary_edge_coshes(tet)
    assert max(vals) - min(vals) < 1e-14
    # at the solution the common value is cos(beta)/(1-cos(beta))
    cb = math.cos(cs.beta_bar)
    assert abs(vals[0] - cb / (1.0 - cb)) < 1e-12


def test_boundary_edges_match_at_filled_solution():
    sig = GKSignature(2, 1)
    x = solve_filling(sig, FillingSpec.from_pairs(1, [(7.0, 2.0)]))
    cb = math.cos(x[-1])
    rhs = cb / (1.0 - cb)
    for l in range(2):
        for v in tt.boundary_edge_coshes(tet_from_coords(x, l)):
            assert abs(v - rhs) < 1e-10


def test_boundary_edge_cyclic_relabel():
    tet = tt.TruncatedTetrahedron.one_ideal((0.3, 0.4, 0.45), (1.0, 1.1, math.pi - 2.1))
    rolled = tt.TruncatedTetrahedron.one_ideal(
        (0.4, 0.45, 0.3), (1.1, math.pi - 2.1, 1.0)
    )
    for j in range(3):
        assert tt.boundary_edge_cosh(rolled, j) == pytest.approx(
            tt.boundary_edge_cosh(tet, j + 1), abs=1e-14
        )


def test_boundary_edge_requires_ideal_vertex():
    with pytest.raises(DomainError):
        tt.boundary_edge_cosh(tt.TruncatedTetrahedron.regular_compact(0.5), 0)


def test_internal_edge_regular_value():
    for b in (1.3, 2.0, 5.7):
        assert abs(tt.internal_edge_cosh(b, b, b) - b / (b - 1.0)) < 1e-14


def test_internal_edge_rejects_degenerate():
    with pytest.raises(DomainError):
        tt.internal_edge_cosh(1.0, 2.0, 2.0)


def test_internal_edges_equal_across_tetrahedra():
    sig = GKSignature(3, 2)
    x = solve_filling(sig, FillingSpec.from_pairs(2, [(5.0, 1.0), (8.0, 3.0)]))
    vals = []
    for l in range(4):
        b = tt.boundary_edge_coshes(tet_from_coords(x, l))
        vals.append(tt.internal_edge_cosh(*b))
    assert max(vals) - min(vals) < 1e-10


def test_sigma_symmetric_data_zero():
    hexagon = tt.ExceptionalHexagonData(0.7, 0.7, 0.4, 0.4, 1.3, 1.3)
    assert tt.sigma(hexagon) == 0.0


def test_sigma_antisymmetry():
    h1 = tt.ExceptionalHexagonData(0.7, 0.8, 0.4, 0.5, 1.3, 1.6)
    h2 = tt.ExceptionalHexagonData(0.8, 0.7, 0.5, 0.4, 1.6, 1.3)
    assert abs(tt.sigma(h1) + tt.sigma(h2)) < 1e-14


def test_sigma_pairing_at_solutions():
    sig = GKSignature(2, 1)
    x = solve_filling(sig, FillingSpec.from_pairs(1, [(7.0, 2.0)]))
    tA, tB = tet_from_coords(x, 0), tet_from_coords(x, 1)
    for j in range(3):
        sA = tt.sigma(tt.exceptional_hexagon(tA, j))
        sB = tt.sigma(tt.exceptional_hexagon(tB, j))
        assert abs(sA + sB) < 1e-10


def test_sigma_pairing_equivalent_to_sine_products():
    # The labelling check behind the sigma construction: whenever the
    # boundary-edge lengths match, the sigma-pairing defect across face j
    # equals the log-ratio of the adjacent sine products, so pairing
    # holds for all j exactly when the products are apex-independent.
    # Exercised on points solving length matching but NOT sigma matching.
    import numpy as np

    from mgk.deformation import jacobian, residuals

    sig = GKSignature(2, 1)
    cs = solve_complete(sig)
    rng = np.random.default_rng(7)
    # keep length rows 0-5, ideal sums 6-7, angle sum 10; drop sigma rows
    keep = [0, 1, 2, 3, 4, 5, 6, 7, 10]
    x = cs.x0 + 0.08 * rng.standard_normal(sig.n_coords)
    for _ in range(60):
        r = residuals(sig, x)[keep]
        if np.max(np.abs(r)) < 1e-12:
            break
        J = jacobian(sig, x)[keep]
        x = x - np.linalg.lstsq(J, r, rcond=None)[0]
    assert np.max(np.abs(residuals(sig, x)[keep])) < 1e-12
    tA, tB = tet_from_coords(x, 0), tet_from_coords(x, 1)

    def product(j):
        return (
            math.sin(tA.alpha[j]) * math.sin(tB.alpha[j])
            * math.sin(tA.gamma[j]) * math.sin(tB.gamma[j])
        )

    # sigma matching genuinely fails here, so the check is not vacuous
    assert max(abs(product(j) - product((j + 1) % 3)) for j in range(3)) > 1e-4
    for j in range(3):
        sigma_sum = tt.sigma(tt.exceptional_hexagon(tA, j)) + tt.sigma(
            tt.exceptional_hexagon(tB, j)
        )
        expected = math.log(product((j + 2) % 3) / product((j + 1) % 3))
        assert abs(sigma_sum - expected) < 1e-10
