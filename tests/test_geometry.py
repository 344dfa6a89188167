"""Geometry core: squared-distance matrices, diameter, congruence, products."""

from fractions import Fraction
from itertools import combinations
from math import cos, isclose, pi, radians, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamray import (
    PointSet,
    brick,
    cartesian_product,
    circumcenter,
    diameter,
    find_congruence,
    random_orthogonal,
    regular_polygon,
    segment,
    sq_dist,
    sq_dist_matrix,
)
from diamray.geometry import _same_distance


def test_unit_segment_matrix():
    P = segment(1)
    M = sq_dist_matrix(P)
    assert M.tolist() == [[0, 1], [1, 0]]
    assert P.is_exact


def test_partition_set_n2_matrix_by_direct_enumeration():
    # independent oracle: build the three equal-halves partitions of {1..4}
    # by hand and compute coordinates directly
    pairs = list(combinations(range(1, 5), 2))
    halves = [{1, 2}, {1, 3}, {1, 4}]
    pts = [tuple(1 if len(set(T) & X) == 1 else 0 for T in pairs) for X in halves]
    for p in pts:
        assert sum(p) == 4
    for a, b in combinations(pts, 2):
        assert sq_dist(a, b, True) == 4


def test_heptagon_chords_match_closed_form():
    P = regular_polygon(7, 1.0)
    M = sq_dist_matrix(P)
    for i in range(7):
        for j in range(i + 1, 7):
            k = min((j - i) % 7, (i - j) % 7)
            expected = 4.0 * sin(k * pi / 7) ** 2
            assert isclose(M[i][j], expected, rel_tol=1e-12)
    # the chord between the unit vectors at +-75 degrees is 2 cos(15 degrees)
    b = (cos(radians(75.0)), sin(radians(75.0)))
    c = (cos(radians(75.0)), -sin(radians(75.0)))
    assert isclose(sqrt(sq_dist(b, c, False)), 2 * cos(radians(15.0)),
                   rel_tol=1e-12)


def test_diameter_single_point():
    info = diameter(PointSet.exact([[0, 0]]))
    assert info.value == 0.0 and info.pairs == ()


def test_brick_diameter_by_direct_coordinates():
    B = brick([3, 4])
    # oracle: scan all coordinate pairs directly
    best = max(sq_dist(p, q, True) for p, q in combinations(B.points, 2))
    assert best == 25
    info = diameter(B)
    assert info.sq == 25 and info.value == 5.0


def test_product_diameter_additivity():
    square = cartesian_product(segment(1), segment(1))
    assert diameter(square).sq == 2
    tri = PointSet.exact([[0, 0], [3, 0], [3, 4]])
    single = PointSet.exact([[7]])
    prod = cartesian_product(tri, single)
    assert find_congruence(prod, tri) is not None


def test_three_segment_brick_all_pairs():
    B = brick([2, 3, 6])
    assert len(B) == 8
    pairs = list(combinations(range(8), 2))
    assert len(pairs) == 28
    best = max(sq_dist(B.points[i], B.points[j], True) for i, j in pairs)
    assert best == 4 + 9 + 36
    assert diameter(B).value == 7.0


def _random_rational_set(rng, n, dim, den):
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(int(x), den)
                      for x in rng.integers(-8, 9, size=dim)))
    return PointSet.exact(sorted(pts))


def test_product_diameter_exact_random_rational_sets():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = _random_rational_set(rng, 4, 2, 4)
        B = _random_rational_set(rng, 3, 2, 3)
        prod = cartesian_product(A, B)
        assert diameter(prod).sq == diameter(A).sq + diameter(B).sq


def test_congruence_under_permutation():
    P = PointSet.exact([[0, 0], [2, 0], [0, 3], [5, 1]])
    Q = P.select((2, 0, 3, 1))
    m = find_congruence(P, Q)
    assert m is not None
    MP, MQ = sq_dist_matrix(P), sq_dist_matrix(Q)
    for i in range(4):
        for j in range(4):
            assert MP[i][j] == MQ[m[i]][m[j]]


def test_congruence_rejects_different_lengths():
    assert find_congruence(segment(1), segment(2)) is None


def test_congruence_needs_equal_sizes():
    triangle = PointSet.exact([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="equal cardinalities"):
        find_congruence(segment(1), triangle)


def test_congruence_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = PointSet.from_floats(rng.standard_normal((5, 3)))
        Q = PointSet.from_floats(rng.standard_normal((5, 3)))
        assert (find_congruence(P, Q) is None) == (find_congruence(Q, P) is None)
    P = PointSet.from_floats(rng.standard_normal((6, 3)))
    Q = P.select((3, 1, 5, 0, 2, 4))
    assert find_congruence(P, Q) is not None
    assert find_congruence(Q, P) is not None


def test_right_triangle_found_in_brick_corner():
    l1, l2 = 3, 4
    tri = PointSet.exact([[0, 0], [l1, 0], [l1, l2]])
    B = brick([l1, l2])
    corner = B.select((0, 2, 3))
    assert find_congruence(tri, corner) is not None


def test_congruence_across_dimensions():
    # congruence is intrinsic: flat sets in different ambient dimensions match
    P = PointSet.exact([[0], [5]])
    Q = PointSet.exact([[0, 0, 0], [3, 4, 0]])
    assert find_congruence(P, Q) is not None


def test_rigid_motion_invariance():
    rng = np.random.default_rng(99)
    P = PointSet.from_floats(rng.standard_normal((7, 4)))
    M = sq_dist_matrix(P)
    Q_mat = random_orthogonal(4, rng)
    shift = rng.standard_normal(4)
    moved = PointSet.from_floats(P.as_array() @ Q_mat.T + shift)
    M2 = sq_dist_matrix(moved)
    for i in range(7):
        for j in range(7):
            a, b = M[i][j], M2[i][j]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    assert find_congruence(P, moved) is not None


def test_circumcenter_equidistant():
    a, b, c = (0.0, 0.0), (4.0, 0.0), (1.0, 3.0)
    o = circumcenter(a, b, c)
    ra = np.linalg.norm(o - np.array(a))
    assert isclose(ra, float(np.linalg.norm(o - np.array(b))), rel_tol=1e-12)
    assert isclose(ra, float(np.linalg.norm(o - np.array(c))), rel_tol=1e-12)
    with pytest.raises(ValueError):
        circumcenter((0, 0), (1, 0), (2, 0))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet.exact([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        PointSet.exact([[0, 0], [1]])
    with pytest.raises(ValueError):
        PointSet.exact([])
    with pytest.raises(TypeError):
        PointSet.exact([[0.5]])
    with pytest.raises(ValueError):
        PointSet.from_floats([[1e-13], [0.0]])
    for bad in (float("nan"), float("inf"), float("-inf")):
        # rejected before the distinctness test can misname the fault
        with pytest.raises(ValueError, match="point 1 has a non-finite"):
            PointSet.from_floats([[0.0, 0.0], [bad, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="zero denominator"):
        PointSet.exact([["1/0", 0]])
    for tol in (-1.0, -1e-12, float("nan"), float("inf"), "1e-9"):
        with pytest.raises(ValueError, match="tolerance"):
            PointSet.from_floats([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], tolerance=tol)
    assert PointSet.from_floats([[0.0], [1.0]], tolerance=0.0).tolerance == 0.0
    with pytest.raises(ValueError, match="tolerance must be"):
        PointSet.from_floats([[0.0], [1.0]], tolerance=True)
    for radius in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="circumradius"):
            regular_polygon(5, radius)
    with pytest.raises(ValueError, match="non-finite"):
        regular_polygon(7, float("inf"))


def _first_coinciding_pair(points, tol):
    for i, j in combinations(range(len(points)), 2):
        if all(abs(a - b) <= tol * max(1.0, abs(a), abs(b))
               for a, b in zip(points[i], points[j])):
            return i, j
    return None


def test_distinctness_sweep_names_brute_force_pair():
    # 2,400 seeded sets in 1-3 dimensions at scales 1e-12 to 1e6, with
    # several planted pairs just inside and just outside the tolerance; the
    # sorted sweep must name exactly the pair a combinations loop finds
    # first, also at a tolerance of 1.5, where the sweep may not stop early
    rng = np.random.default_rng(2024)
    raised = 0
    for _ in range(2400):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 13))
        tol = float(rng.choice([1e-9, 1e-9, 1e-3, 0.3, 1.5]))
        scale = 10.0 ** rng.uniform(-12, 6)
        pts = rng.standard_normal((n, dim)) * scale
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.choice(n, 2, replace=False)
            slack = tol * np.maximum(1.0, np.abs(pts[i]))
            pts[j] = pts[i] + rng.choice([0.0, 0.5, 0.999, 1.001, 3.0], dim) \
                * rng.choice([-1.0, 1.0], dim) * slack
        points = [[float(x) for x in p] for p in pts]
        want = _first_coinciding_pair(points, tol)
        if want is None:
            assert len(PointSet.from_floats(points, tolerance=tol)) == n
            continue
        raised += 1
        with pytest.raises(ValueError) as exc:
            PointSet.from_floats(points, tolerance=tol)
        assert str(exc.value) == (f"points {want[0]} and {want[1]} "
                                  "coincide within tolerance")
    assert 600 < raised < 2000


def test_json_round_trip_exact_rationals():
    P = PointSet.exact([["1/2", 3], [0, "-7/3"]], labels=["a", "b"])
    doc = P.to_json()
    assert doc["mode"] == "exact" and doc["schema"] == 1
    assert doc["points"][0][0] == "1/2"
    back = PointSet.from_json(doc)
    assert back.points == P.points and back.labels == P.labels


def test_json_round_trip_float():
    P = PointSet.from_floats([[0.25, -1.5], [2.0, 3.125]], tolerance=1e-7)
    back = PointSet.from_json(P.to_json())
    assert back.points == P.points and back.tolerance == 1e-7


@pytest.mark.parametrize("doc, message", [
    ({"mode": "exact", "points": [[0], [True]]}, "point 1: booleans"),
    ({"mode": "exact", "points": [[0], [0.5]]}, "point 1: not an exact scalar"),
    ({"mode": "float", "points": [1, 2]}, "point 0 is not a list"),
    ({"mode": "exact", "points": 5}, "points must be a list"),
    ({"mode": "exact", "points": [[0], [1]], "labels": 5}, "labels"),
])
def test_from_json_rejects_bad_points_with_value_error(doc, message):
    # each used to raise TypeError; bad documents raise ValueError, as they
    # do in Hypergraph.from_json
    with pytest.raises(ValueError, match=message):
        PointSet.from_json(doc)


def test_near_miss_flagging():
    # distance(1,2) = 1 - 8e-7 sits between 10*eps and eps below the diameter
    P = PointSet.from_floats([[0.0], [1.0], [8e-7]], tolerance=2e-7)
    info = diameter(P)
    assert info.pairs == ((0, 1),)
    assert (1, 2) in info.near_misses


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(0)
    Q = random_orthogonal(5, rng)
    assert np.allclose(Q @ Q.T, np.eye(5), atol=1e-12)


def _congruent_by_brute_force(P, Q):
    # oracle: try every bijection
    from itertools import permutations

    MP, MQ = sq_dist_matrix(P), sq_dist_matrix(Q)
    n = len(P)
    for perm in permutations(range(n)):
        if all(MP[i][j] == MQ[perm[i]][perm[j]]
               for i in range(n) for j in range(i + 1, n)):
            return True
    return False


def test_congruence_matches_brute_force_on_lattice_sets():
    rng = np.random.default_rng(44)
    hits = 0
    for _ in range(40):
        n = int(rng.integers(3, 6))
        pts = set()
        while len(pts) < n:
            pts.add(tuple(int(x) for x in rng.integers(0, 3, size=2)))
        P = PointSet.exact(sorted(pts))
        if rng.random() < 0.5:
            # genuine congruent partner: permute and reflect
            order = list(rng.permutation(n))
            Q = PointSet.exact([tuple((-a, b)) for a, b in
                                (P.points[i] for i in order)])
        else:
            pts2 = set()
            while len(pts2) < n:
                pts2.add(tuple(int(x) for x in rng.integers(0, 3, size=2)))
            Q = PointSet.exact(sorted(pts2))
        want = _congruent_by_brute_force(P, Q)
        got = find_congruence(P, Q) is not None
        assert got == want
        hits += want
    assert 0 < hits < 40  # the corpus saw both outcomes


def test_exact_diameter_past_int64():
    # the Gram expansion's 2^64 terms must not wrap in a fixed-width path
    info = diameter(PointSet.exact([[0, 0], [2 ** 31, 0], [0, 2 ** 32]]))
    assert info.sq == 2 ** 62 + 2 ** 64 == 23058430092136939520
    assert info.pairs == ((1, 2),)


def test_exact_diameter_coordinates_beyond_int64():
    big = PointSet.exact([[2 ** 63, 0], [2 ** 64, 1], [2 ** 70 + 3, 4]])
    want = max((a - c) ** 2 + (b - d) ** 2
               for (a, b), (c, d) in combinations(big.points, 2))
    assert diameter(big).sq == want
    # huge but close points: translation-invariant, small exact answer
    near = PointSet.exact([[2 ** 70, -2 ** 70], [2 ** 70 + 3, 4 - 2 ** 70]])
    assert diameter(near).sq == 25


def test_exact_diameter_past_float_range():
    # the square overflows a float; its integer root does not
    info = diameter(PointSet.exact([[0], [10 ** 200]]))
    assert info.value == 1e200 and info.sq == 10 ** 400
    info = diameter(PointSet.exact([[0, 0], ["1/3", 10 ** 200]]))
    assert info.value == 1e200 and info.sq == Fraction(1, 9) + 10 ** 400
    with pytest.raises(ValueError, match="diameter overflows a float"):
        diameter(PointSet.exact([[0], [10 ** 400]]))


def test_float_squared_distance_overflow_raises():
    # inf - inf made NaN entries: no diameter pair, no copy of a triangle
    for pts in ([[1e200], [-1e200], [0.0]], [[0, 0], [1e200, 0], [0, 1e200]]):
        P = PointSet.from_floats(pts)
        with pytest.raises(ValueError, match="overflow a float"):
            sq_dist_matrix(P)
        with pytest.raises(ValueError, match="overflow a float"):
            diameter(P)
        with pytest.raises(ValueError, match="overflow a float"):
            find_congruence(P, P)
    # large but representable squares still work
    P = PointSet.from_floats([[1e153, 0], [0, 1e153], [1e153, 1e153]])
    assert diameter(P).pairs == ((0, 1),)


def test_int64_path_matches_python_ints_near_the_bound():
    from diamray.geometry import _int64_gram_array

    # 2 * dim * w^2 < 2^63 holds up to w = 1518500249 in the plane
    for w, fast in ((1518500249, True), (1518500250, False)):
        for shift in (0, -2 ** 62, 2 ** 62 - 2 * w, 2 ** 70):
            pts = [(shift, shift), (shift + w, shift), (shift, shift + w),
                   (shift + w // 3, shift + w)]
            assert (_int64_gram_array(pts) is not None) == (fast and shift < 2 ** 63)
            want = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts]
                    for p in pts]
            got = sq_dist_matrix(PointSet.exact(pts))
            assert [list(r) for r in got] == want


def test_int64_matrix_matches_sq_dist_around_the_float_product_bound():
    # 2 * dim * w^2 < 2^53 holds up to w = 47453132 in the plane; below it
    # the Gram product of 32 or more points runs in float64, above it in
    # int64. At w = 2^27 + 1 a float64 product would round (w^2 needs 55 bits)
    rng = np.random.default_rng(7)
    for w in (47453132, 47453133, 2 ** 27 + 1):
        assert (2 * 2 * w ** 2 < 2 ** 53) == (w == 47453132)
        inner = rng.integers(0, w + 1, size=(32, 2)).tolist()
        for shift in (0, -5 * w, 2 ** 40):
            pts = [(shift + a, shift + b) for a, b in [(0, 0), (w, w)] + inner]
            M = sq_dist_matrix(PointSet.exact(pts))
            assert M.dtype == np.int64
            assert M.tolist() == [[sq_dist(p, q, True) for q in pts] for p in pts]


def test_sq_dist_matrix_storage():
    # one read-only array per set: int64, Python ints and Fractions past
    # int64 or with rational points, float64 in the float lane
    cases = (([[0, 0], [3, 4]], np.int64, int, 25),
             ([[0, 0], [2 ** 40, 0]], object, int, 2 ** 80),
             ([["1/2", 0], [0, 0]], object, Fraction, Fraction(1, 4)),
             ([[0.0, 0.0], [3.0, 4.0]], np.float64, float, 25.0))
    for pts, dtype, kind, far in cases:
        P = (PointSet.from_floats(pts) if isinstance(pts[0][0], float)
             else PointSet.exact(pts))
        M = sq_dist_matrix(P)
        assert M.dtype == dtype and not M.flags.writeable
        assert M.tolist() == [[0, far], [far, 0]]
        assert type(M.tolist()[0][1]) is kind
        info = diameter(P)
        assert info.sq == far and type(info.sq) is kind
        assert info.pairs == ((0, 1),) and type(info.pairs[0][0]) is int
        with pytest.raises(ValueError):
            M[0, 1] = 1


# points of {0..w}^dim; the narrow boxes give sets with several diameter pairs
_lattice = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda dw: st.lists(st.tuples(*[st.integers(0, dw[1])] * dw[0]),
                        min_size=2, max_size=9, unique=True))


@settings(max_examples=60, deadline=None)
@given(_lattice, st.floats(-6.0, 6.0), st.integers(0, 2 ** 32 - 1))
def test_float_diameter_pairs_match_exact_lane(points, log_scale, seed):
    # after a rotation, a translation and a scaling by up to 10^6 either way
    # the float lane finds the exact lane's diameter pairs, and they are the
    # pairs whose squared distance _same_distance matches to the largest
    exact = diameter(PointSet.exact(points))
    rng = np.random.default_rng(seed)
    dim = len(points[0]) + 1
    A = np.hstack([np.array(points, dtype=float), np.zeros((len(points), 1))])
    scale = 10.0 ** log_scale
    P = PointSet.from_floats(
        (A @ random_orthogonal(dim, rng).T + rng.standard_normal(dim)) * scale)
    info = diameter(P)
    M = sq_dist_matrix(P)
    best = max(map(max, M))
    matched = tuple((i, j) for i, j in combinations(range(len(P)), 2)
                    if _same_distance(M[i][j], best, P.tolerance))
    assert info.pairs == exact.pairs == matched
    assert info.near_misses == ()
    assert info.sq == best == pytest.approx(exact.sq * scale * scale, rel=1e-9)
