"""Point-set family generators and the simplex realizer."""

from fractions import Fraction
from itertools import combinations
from math import comb, isclose, pi, sin, sqrt

import numpy as np
import pytest

from diamray import (
    NonRealizableError,
    angle_at,
    brick,
    cube_corner_set,
    diameter,
    find_congruence,
    heptagon_config,
    isosceles_apex_triangle,
    kahn_kalai_blocks,
    kahn_kalai_set,
    kneser_points,
    kneser_subsets,
    realize,
    regular_polygon,
    regular_simplex,
    simplex_from_sides,
    segment,
    simplex_from_squared_sides,
    sq_dist,
    sq_dist_matrix,
)


def test_partition_set_n2():
    P = kahn_kalai_set(2)
    assert len(P) == 3 and P.dim == 6
    M = sq_dist_matrix(P)
    for i in range(3):
        for j in range(3):
            assert M[i][j] == (0 if i == j else 4)
    assert all(sum(p) == 4 for p in P.points)


def test_partition_set_n4_counts_and_diameter():
    P = kahn_kalai_set(4)
    assert len(P) == comb(8, 4) // 2 == 35
    assert P.dim == comb(8, 2) == 28
    assert all(sum(1 for x in p if x) == 16 for p in P.points)
    assert diameter(P).sq == 16


def test_partition_set_rejects_odd_n():
    with pytest.raises(ValueError):
        kahn_kalai_set(3)
    with pytest.raises(ValueError):
        kahn_kalai_set(0)


@pytest.mark.parametrize("n", [2, 4])
def test_partition_distance_formula_random_pairs(n):
    P = kahn_kalai_set(n)
    blocks = kahn_kalai_blocks(n)
    rng = np.random.default_rng(n)
    for _ in range(300):
        i, j = rng.integers(0, len(P), size=2)
        if i == j:
            continue
        t = len(blocks[i] & blocks[j])
        assert sq_dist(P.points[i], P.points[j], True) \
            == 2 * n * n - 2 * (t * t + (n - t) * (n - t))


def test_kneser_small_cases():
    P = kneser_points(2, 2, 2)
    assert P.dim == 5 and len(P) == comb(5, 2) == 10
    assert diameter(P).value == 2.0

    P = kneser_points(1, 2, 2)
    assert P.dim == 3 and len(P) == 3
    M = sq_dist_matrix(P)
    assert all(M[i][j] == 2 for i in range(3) for j in range(3) if i != j)

    P = kneser_points(3, 2, 3)
    assert P.dim == 11 and len(P) == comb(11, 3) == 165


def test_kneser_distance_is_symmetric_difference():
    subsets = kneser_subsets(2, 3, 2)
    P = kneser_points(2, 3, 2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        i, j = rng.integers(0, len(P), size=2)
        assert sq_dist(P.points[i], P.points[j], True) \
            == len(subsets[i] ^ subsets[j])


def test_kneser_diameter_pairs_are_disjoint_pairs():
    P = kneser_points(2, 2, 2)
    subsets = kneser_subsets(2, 2, 2)
    info = diameter(P)
    attained = set(info.pairs)
    expected = {(i, j) for i, j in combinations(range(len(P)), 2)
                if not subsets[i] & subsets[j]}
    assert attained == expected


def test_regular_simplex_basic():
    seg = regular_simplex(2, 2.5)
    assert len(seg) == 2 and seg.dim == 1
    assert isclose(diameter(seg).value, 2.5, rel_tol=1e-12)

    tri = regular_simplex(3, 1.0)
    assert tri.dim == 2
    centroid = tri.as_array().mean(axis=0)
    # closed-form circumradius sqrt((m-1)/(2m)) * s
    for p in tri.as_array():
        assert isclose(float(np.linalg.norm(p - centroid)), 1 / sqrt(3),
                       rel_tol=1e-9)

    # the rank cutoff of `realize` is relative, so tiny sides keep all
    # three dimensions
    for side in (sqrt(2), 1e-5, 1e5):
        tet = regular_simplex(4, side)
        M = sq_dist_matrix(tet)
        for i in range(4):
            for j in range(i + 1, 4):
                assert isclose(M[i][j], side * side, rel_tol=1e-9)
        assert tet.dim == 3


def test_regular_simplex_with_vanishing_squared_sides_raises():
    # 1e-170 squared underflows to 0.0: the Gram matrix has no positive
    # eigenvalue, which is reported instead of collapsing the points
    with pytest.raises(ValueError, match="not positive") as err:
        regular_simplex(3, 1e-170)
    assert not isinstance(err.value, NonRealizableError)


def test_regular_simplex_string_side_matches_fraction():
    # a 'num/den' string side is read like the Fraction it names, as in
    # `segment` and `simplex_from_sides`
    for m in (2, 3, 5):
        assert regular_simplex(m, "7/3").points == \
            regular_simplex(m, Fraction(7, 3)).points
    with pytest.raises(ValueError, match="positive"):
        regular_simplex(3, "-7/3")


def test_regular_polygon_chords():
    P = regular_polygon(5, 2.0)
    M = sq_dist_matrix(P)
    assert isclose(M[0][1], (2 * 2.0 * sin(pi / 5)) ** 2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        regular_polygon(2)


def test_brick_six_cube():
    B = brick([1] * 6)
    assert len(B) == 64
    assert diameter(B).sq == 6


def test_brick_rational_lengths_exact():
    B = brick(["1/2", 3])
    assert B.is_exact
    assert diameter(B).sq == Fraction(1, 4) + 9


def test_float_segment_and_brick():
    S = segment(1.5)
    assert S.mode == "float" and S.points == ((0.0,), (1.5,))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            segment(bad)
    B = brick([1.5, 2.0])
    assert B.mode == "float" and len(B) == 4
    assert diameter(B).sq == 6.25


def test_cube_corner_set_distances():
    P = cube_corner_set()
    assert len(P) == 7 and P.dim == 6
    M = sq_dist_matrix(P)
    for i in range(1, 7):
        assert M[0][i] == 1
        for j in range(i + 1, 7):
            assert M[i][j] == 2
    assert diameter(P).sq == 2


def test_heptagon_config_diameters_match():
    R, P = heptagon_config(1.0)
    # both diameters equal the 3-step chord
    expected = 2.0 * sin(3 * pi / 7)
    assert isclose(diameter(R).value, expected, rel_tol=1e-12)
    assert isclose(diameter(P).value, expected, rel_tol=1e-12)
    # pattern side lengths are the 1-, 2-, 3-step chords
    M = sq_dist_matrix(P)
    chords = sorted((M[0][1], M[0][2], M[1][2]))
    want = sorted((2 * sin(k * pi / 7)) ** 2 for k in (1, 2, 3))
    for a, b in zip(chords, want):
        assert isclose(a, b, rel_tol=1e-12)


def test_simplex_from_sides_right_triangle():
    spec = simplex_from_sides([3, 4, 5])
    pts = realize(spec)
    # sides (p0p1, p0p2, p1p2) = (3, 4, 5): the right angle sits at p0
    assert isclose(angle_at(pts.points[0], pts.points[1], pts.points[2]),
                   90.0, abs_tol=1e-7)


def test_simplex_from_sides_violating_triangle_inequality():
    with pytest.raises(NonRealizableError) as err:
        realize(simplex_from_sides([1, 1, 3]))
    assert err.value.eigenvalue < 0


def test_realize_left_inverse_up_to_congruence():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        sides = [float(x) for x in rng.uniform(0.9, 1.1, size=n * (n - 1) // 2)]
        spec = simplex_from_sides(sides)
        pts = realize(spec)
        spec2 = simplex_from_squared_sides(
            [[float(x) for x in row] for row in sq_dist_matrix(pts)])
        assert find_congruence(pts, realize(spec2)) is not None


def test_realize_reproduces_sides():
    spec = simplex_from_sides([1, 1, 1])
    pts = realize(spec)
    assert find_congruence(pts, regular_simplex(3, 1.0)) is not None
    M = sq_dist_matrix(pts)
    for i in range(3):
        for j in range(3):
            assert isclose(M[i][j], float(spec.side_sq[i][j]),
                           rel_tol=1e-9, abs_tol=1e-12)


def test_realize_near_degenerate_passes():
    # thin but valid triangle: realization must not be rejected
    pts = realize(simplex_from_sides([1, 1, 0.01]))
    assert len(pts) == 3


def test_exact_constructions_have_integer_squared_distances():
    for P in (kahn_kalai_set(2), kahn_kalai_set(4), kneser_points(2, 2, 2),
              cube_corner_set()):
        M = sq_dist_matrix(P)
        assert P.is_exact
        E = M.tolist()
        assert all(isinstance(E[i][j], int)
                   for i in range(len(P)) for j in range(len(P)))


def test_isosceles_apex_triangle():
    tri = isosceles_apex_triangle(150.0, base=1.0)
    assert isclose(angle_at(*tri.points), 150.0, abs_tol=1e-9)
    assert isclose(diameter(tri).value, 1.0, rel_tol=1e-12)


def test_simplex_spec_validation():
    with pytest.raises(ValueError):
        simplex_from_squared_sides([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        simplex_from_squared_sides([[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        simplex_from_sides([1, 1])  # not an upper triangle count


def test_simplex_from_sides_reads_only_the_flat_upper_triangle():
    with pytest.raises((TypeError, ValueError)):
        simplex_from_sides([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert simplex_from_sides([3, 4, 5]).side_sq == (
        (0, 9, 16), (9, 0, 25), (16, 25, 0))
    nine = Fraction(9, 25)
    spec = simplex_from_sides(["1", "3/5", "3/5"])
    assert spec.side_sq == ((0, 1, nine), (1, 0, nine), (nine, nine, 0))
    assert all(type(x) is Fraction for row in spec.side_sq for x in row)


def test_gram_routes_match_the_loop_reference():
    from diamray.constructions import _from_gram

    # realize's broadcast Gram matrix against the double loop it replaced
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 6):
        spec = simplex_from_sides(rng.uniform(0.9, 1.0, size=comb(n, 2)).tolist())
        M = [[float(x) for x in row] for row in spec.side_sq]
        G = np.array([[(M[0][i] + M[0][j] - M[i][j]) / 2.0 for j in range(1, n)]
                      for i in range(1, n)])
        assert realize(spec).points == _from_gram(G).points
    # s^2/2 (I + J) is that Gram matrix for equal sides, to the last bit
    for m in range(2, 9):
        for side in (1.0, 2.5, 1e-5, 1e5, sqrt(2), Fraction(7, 3)):
            spec = simplex_from_sides([side] * comb(m, 2))
            assert regular_simplex(m, side).points == realize(spec).points
