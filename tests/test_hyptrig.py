import math

import pytest

from mgk.hyptrig import DomainError
from trig_rules import hexagon_side_cosh, log_sinh, triangle_side_cosh, triangle_sides


def test_equilateral_pi_over_4_closed_form():
    val = triangle_side_cosh(math.pi / 4, math.pi / 4, math.pi / 4)
    assert abs(val - (1.0 + math.sqrt(2.0))) < 1e-14


def test_euclidean_degeneration_limit():
    # equal angles approaching pi/3: the side cosh approaches 1
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        a = math.pi / 3 - eps
        val = triangle_side_cosh(a, a, a)
        assert val > 1.0
        if prev is not None:
            assert val < prev
        prev = val
    assert prev - 1.0 < 1e-5


def test_equal_angle_identity():
    # for alpha = alpha1 = alpha2 = alpha3: cosh = cos(a)(1+cos a)/sin^2 a = cos a/(1-cos a)
    a = 0.4935
    val = triangle_side_cosh(a, a, a)
    assert abs(val - math.cos(a) / (1.0 - math.cos(a))) < 1e-12


def test_symmetry_in_last_two_angles():
    assert triangle_side_cosh(0.3, 0.5, 0.7) == triangle_side_cosh(0.3, 0.7, 0.5)


def test_domain_errors():
    with pytest.raises(DomainError):
        triangle_side_cosh(1.5, 1.5, 0.2)  # sum >= pi
    with pytest.raises(DomainError):
        triangle_side_cosh(-0.1, 0.5, 0.5)
    with pytest.raises(DomainError):
        triangle_side_cosh(0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        hexagon_side_cosh(1.0, 2.0, 2.0)


@pytest.mark.parametrize(
    "angles",
    [
        (0.3, 0.5, 0.7),
        (0.1, 0.2, 0.25),
        (1.0, 1.0, 1.0),
        (0.9, 0.05, 1.1),
    ],
)
def test_sine_rule(angles):
    sides = triangle_sides(*angles)
    ratios = [
        math.sinh(math.acosh(c)) / math.sin(a) for c, a in zip(sides, angles)
    ]
    assert max(ratios) - min(ratios) < 1e-12


def test_triangle_sides_permutation():
    sides = triangle_sides(0.3, 0.5, 0.7)
    rolled = triangle_sides(0.5, 0.7, 0.3)
    assert rolled == (sides[1], sides[2], sides[0])


def test_equal_angles_equal_sides():
    sides = triangle_sides(0.4, 0.4, 0.4)
    assert sides[0] == sides[1] == sides[2]


def test_monotone_in_opposite_angle():
    # side opposite alpha1 strictly shrinks as alpha1 grows
    vals = [triangle_side_cosh(a, 0.4, 0.4) for a in (0.2, 0.5, 0.9, 1.5, 2.0)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_hexagon_regular_closed_form():
    for c in (1.5, 2.0, 5.7):
        assert abs(hexagon_side_cosh(c, c, c) - c / (c - 1.0)) < 1e-14


def test_hexagon_symmetry():
    assert hexagon_side_cosh(1.5, 2.0, 3.0) == hexagon_side_cosh(1.5, 3.0, 2.0)


def test_log_sinh_matches_naive():
    for L in (1e-3, 0.5, 2.0, 20.0):
        assert abs(log_sinh(L) - math.log(math.sinh(L))) < 1e-12
    # still finite where naive sinh overflows
    assert log_sinh(800.0) == pytest.approx(800.0 - math.log(2.0))
