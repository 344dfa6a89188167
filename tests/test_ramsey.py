"""Copy enumeration, arrow decisions, embedding witnesses, residue gadget."""

from fractions import Fraction
from itertools import combinations
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from diamray import (
    PointSet,
    acute_triangle_embedding,
    arrows,
    brick,
    sq_dist_matrix,
    congruent_copies,
    diameter,
    find_congruence,
    heptagon_config,
    is_proper,
    mod8_color,
    mod8_near_boundary,
    near_regular_simplex_embedding,
    obtuse_gadget_audit,
    random_orthogonal,
    regular_simplex,
    regular_simplex_arrow,
    right_triangle_embedding,
    segment,
    simplex_from_sides,
    EmbeddingConditionError,
)
from diamray.geometry import _distance_preserving_maps
from diamray.ramsey import BOUNDARY_TOL, _gadget_placements


def _heptagon_copy_census():
    # independent oracle: count vertex triples of the 7-gon whose cyclic gap
    # multiset is {1, 2, 4}, the gap pattern of vertices (1, 2, 4)
    count = set()
    for i, j, k in combinations(range(7), 3):
        gaps = sorted((j - i, k - j, (i - k) % 7))
        if gaps == [1, 2, 4]:
            count.add((i, j, k))
    return count


def test_heptagon_copies_match_gap_census():
    R, P = heptagon_config()
    fam = congruent_copies(R, P)
    census = _heptagon_copy_census()
    assert len(census) == 14
    assert set(fam.copies) == census


def test_copies_trivial_cases():
    R = regular_simplex(5, 1.0)
    fam = congruent_copies(R, regular_simplex(3, 1.0))
    assert len(fam) == 10  # all C(5,3) triples

    square = brick([1, 1])
    diag = PointSet.from_floats([[0.0], [sqrt(2.0)]])
    fam = congruent_copies(square, diag)
    assert set(fam.copies) == {(0, 3), (1, 2)}


def test_copies_invariant_under_rigid_motion():
    # the float rule is relative, so the answer holds far below and above
    # unit scale, with the set moved a unit away from the origin
    for radius in (1.0, 1e-5, 1e5):
        R, P = heptagon_config(radius)
        rng = np.random.default_rng(2)
        Q = random_orthogonal(2, rng)
        moved = PointSet.from_floats(R.as_array() @ Q.T + rng.standard_normal(2))
        assert len(congruent_copies(moved, P)) == 14


def test_heptagon_arrow_decisions():
    for radius in (1.0, 1e-5, 1e5):
        R, P = heptagon_config(radius)
        assert arrows(R, P, 2).arrows
        res3 = arrows(R, P, 3)
        assert not res3.arrows
        # the evading 3-coloring really leaves no monochromatic copy
        fam = congruent_copies(R, P)
        assert len(fam) == 14
        assert is_proper(fam.as_hypergraph, res3.evading)


def test_arrow_monotone_in_colors():
    R, P = heptagon_config()
    results = [arrows(R, P, r).arrows for r in (1, 2, 3, 4)]
    assert results == [True, True, False, False]


def test_self_arrow_fails_with_two_colors():
    P = regular_simplex(3, 1.0)
    res = arrows(P, P, 2)
    assert not res.arrows and res.num_copies == 1


def test_simplex_arrow_witnesses():
    host, rep = regular_simplex_arrow(1, 2)
    assert len(host) == 3 and rep["pigeonhole_ok"]
    assert rep["exact_checked"] and rep["exact_arrows"]

    host, rep = regular_simplex_arrow(2, 2)
    assert len(host) == 5
    assert rep["exact_checked"] and rep["exact_arrows"]

    host, rep = regular_simplex_arrow(2, 3)
    assert len(host) == 7 and rep["pigeonhole_class_size"] == 3
    assert rep["exact_arrows"]

    host, rep = regular_simplex_arrow(4, 3)
    assert len(host) == 13 and not rep["exact_checked"]


def test_right_triangle_embedding_3_4():
    w = right_triangle_embedding(3, 4)
    assert w.ok and w.diam_sq == 25
    assert w.host is not None and len(w.host) == 4
    assert diameter(w.host).sq == 25
    # embedded points really sit at brick vertices
    host_pts = set(w.host.points)
    assert all(p in host_pts for p in w.embedded.points)


def test_right_triangle_embedding_unit_square():
    w = right_triangle_embedding(1, 1)
    assert w.ok and w.diam_sq == 2
    assert find_congruence(w.embedded, w.pattern) is not None


def test_right_triangle_zero_leg_degenerates_to_segment():
    w = right_triangle_embedding(1, 0)
    assert w.ok and w.diam_sq == 1 and len(w.factors) == 1
    assert w.details["degenerate"] == "segment"


def test_acute_triangle_4_5_6_exact_identities():
    w = acute_triangle_embedding(4, 5, 6)
    d = w.details
    assert (d["l1_sq"], d["l2_sq"], d["x_sq"]) == (20, 11, 5)
    assert d["a_sq"] == d["l2_sq"] + d["x_sq"]
    assert d["b_sq"] == d["l1_sq"] + d["x_sq"]
    assert d["c_sq"] == d["l1_sq"] + d["l2_sq"] + d["x_sq"]
    assert w.diam_sq == 36 and w.ok
    assert diameter(w.host).value == pytest.approx(6.0, rel=1e-12)


def test_acute_equilateral_collapses():
    w = acute_triangle_embedding(1, 1, 1)
    assert w.ok and len(w.factors) == 1 and w.diam_sq == 1
    assert find_congruence(w.embedded, regular_simplex(3, 1.0)) is not None


def test_acute_isosceles_segment_factor():
    # b == c drops one right-triangle leg: segment times equilateral
    w = acute_triangle_embedding(1, 2, 2)
    assert w.ok and w.diam_sq == 4
    assert sorted(len(f) for f in w.factors) == [2, 3]


def test_right_triangle_route_from_acute_entry():
    w = acute_triangle_embedding(3, 4, 5)
    assert w.ok and w.diam_sq == 25
    assert w.details["colors"] == 2


def test_obtuse_rejected():
    with pytest.raises(ValueError, match="degeneracy"):
        acute_triangle_embedding(1, 1, 1.9)
    with pytest.raises(ValueError):
        acute_triangle_embedding(1, 1, 3)  # not even a triangle


def test_near_regular_equilateral_is_itself():
    w = near_regular_simplex_embedding(simplex_from_sides([1, 1, 1]))
    assert w.ok and len(w.factors) == 1
    assert w.details["a_sq"] == 1
    assert find_congruence(w.embedded, regular_simplex(3, 1.0)) is not None


def test_near_regular_witness_values():
    spec = simplex_from_sides(["1", "1", "99/100"])
    w = near_regular_simplex_embedding(spec)
    assert w.details["a_sq"] == Fraction(9801, 10000)
    # sides (1, 1, 99/100): x^2 values are (0, 0, 199/10000); zero factors drop
    x_all = [Fraction(1) - spec.side_sq[i][j]
             for i, j in combinations(range(3), 2)]
    assert sorted(x_all) == [0, 0, Fraction(199, 10000)]
    assert len(w.factors) == 2  # core simplex + one pair factor
    assert w.ok


def test_near_regular_deficit():
    with pytest.raises(EmbeddingConditionError) as err:
        near_regular_simplex_embedding(simplex_from_sides(["1", "3/5", "3/5"]))
    assert err.value.deficit == Fraction(-7, 25)


def test_near_regular_diameter_exact_and_pairwise():
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        sides = [float(x) for x in rng.uniform(0.97, 1.0, size=n * (n - 1) // 2)]
        w = near_regular_simplex_embedding(simplex_from_sides(sides))
        assert w.diam_sq == 1
        assert w.details["measured_diam_sq_err"] <= 1e-9
        assert all(c.ok for c in w.pair_checks)
        assert w.congruent


def test_near_regular_small_host_materialized():
    w = near_regular_simplex_embedding(simplex_from_sides([1, 1, 0.99]))
    if w.host is not None:
        emb = w.host.select(w.embedded_host_indices)
        assert find_congruence(emb, w.pattern) is not None
        assert diameter(w.host).value == pytest.approx(1.0, abs=1e-9)


def test_embedding_host_indices_locate_embedded_points():
    # the product host holds every embedded point at its stated index, and
    # its diameter is the pattern's
    witnesses = [right_triangle_embedding(3, 4), right_triangle_embedding(1, 0)]
    witnesses += [acute_triangle_embedding(*sides) for sides in
                  ((4, 5, 6), (1, 2, 2), (1, 1, 1), (3, 4, 5))]
    rng = np.random.default_rng(13)
    near = [[1, 1, 0.99], ["1", "1", "99/100"], [1, 1, 1],
            [1, 1, 1, 1, 1, 0.99], [0.98, 1, 0.99, 1, 1, 1]]
    near += [[float(x) for x in rng.uniform(0.97, 1.0, size=3)] for _ in range(3)]
    for sides in near:
        w = near_regular_simplex_embedding(simplex_from_sides(sides))
        assert w.host is not None and len(w.host) <= 64
        witnesses.append(w)
    for w in witnesses:
        assert w.host.select(w.embedded_host_indices).points == w.embedded.points
        assert diameter(w.host).sq == pytest.approx(float(w.diam_sq), rel=1e-9)


def test_every_factor_is_a_regular_simplex():
    witnesses = [right_triangle_embedding(3, 4), right_triangle_embedding(1, 1)]
    witnesses += [acute_triangle_embedding(*sides) for sides in
                  ((4, 5, 6), (1, 2, 2), (1, 1, 1), (3, 4, 5))]
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        sides = [float(x) for x in rng.uniform(0.97, 1.0, size=n * (n - 1) // 2)]
        witnesses.append(near_regular_simplex_embedding(simplex_from_sides(sides)))
    for w in witnesses:
        for f in w.factors:
            M = sq_dist_matrix(f)
            sq = [float(M[i][j]) for i, j in combinations(range(len(f)), 2)]
            assert all(abs(x - sq[0]) <= f.tolerance * sq[0] for x in sq), sq


def test_acute_triangles_are_the_three_vertex_near_regular_case():
    # a^2 + b^2 >= c^2 is the near-regular condition at n = 3, and both
    # routes build the same product
    rng = np.random.default_rng(33)
    checked = obtuse = 0
    while checked < 200:
        a, b, c = sorted(int(x) for x in rng.integers(1, 30, size=3))
        if a + b <= c:
            continue
        checked += 1
        try:
            acute = acute_triangle_embedding(a, b, c)
        except ValueError as exc:
            assert "obtuse" in str(exc)
            acute = None
        try:
            near = near_regular_simplex_embedding(simplex_from_sides([c, b, a]))
        except EmbeddingConditionError:
            near = None
        assert (acute is None) == (near is None), (a, b, c)
        if acute is None:
            obtuse += 1
            continue
        assert acute.ok and near.ok
        assert sorted(len(f) for f in acute.factors) == \
            sorted(len(f) for f in near.factors)
        assert acute.details["dropped_factors"] == near.details["dropped_factors"]
    assert 0 < obtuse < checked


def test_mod8_color_values():
    assert mod8_color([0.0, 0.0]) == 0
    # squared norm 1.75 -> floor(3.5) = 3
    assert mod8_color([sqrt(1.75)]) == 3
    assert mod8_color([2.0]) == 0  # floor(8) mod 8
    assert mod8_near_boundary([sqrt(0.5)])
    assert not mod8_near_boundary([sqrt(0.3)])


def test_gadget_audit_proof_triangle_clean():
    rep = obtuse_gadget_audit(K=2.0, trials=20000, seed=5)
    assert rep["ok"] and rep["monochromatic"] == 0
    # about 47% of the midpoints drawn in the sqrt(K^2 - 1) ball are kept
    assert rep["trials"] == 20000
    assert 2 * rep["trials"] <= rep["attempts"] <= 3 * rep["trials"]
    assert rep["legs"] == pytest.approx(sqrt(1 + 1 / 68), rel=1e-12)


def test_gadget_audit_detects_thick_legs():
    # legs 1 + xi put the apex too high for the residue argument and real
    # monochromatic placements exist; the audit must find them
    rep = obtuse_gadget_audit(K=2.0, trials=100000, seed=11, legs=1 + 1 / 68)
    assert rep["monochromatic"] > 0 and not rep["ok"]
    assert rep["failures"]
    f = rep["failures"][0]
    a, b, c = (np.array(f[k]) for k in ("a", "b", "c"))
    assert np.linalg.norm(a - c) == pytest.approx(2.0, rel=1e-9)
    assert np.linalg.norm(b - a) == pytest.approx(1 + 1 / 68, rel=1e-9)
    assert len({mod8_color(p) for p in (a, b, c)}) == 1


def _rotated_gadget_squares(K, h, n, seed, dim=3):
    # the earlier sampler, kept as an oracle for the law: a Haar rotation
    # (u, w) of the triangle and a midpoint uniform in the whole K-ball,
    # kept when all three vertices lie in the ball; rows |a|^2, |b|^2, |c|^2
    rng = np.random.default_rng(seed)
    kept = []
    while sum(map(len, kept)) < n:
        u, w, m = (rng.standard_normal((4096, dim)) for _ in range(3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w -= (w * u).sum(1, keepdims=True) * u
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        m *= (K * rng.random(4096) ** (1 / dim)
              / np.linalg.norm(m, axis=1))[:, None]
        sq = np.stack([((m + v) ** 2).sum(1) for v in (-u, h * w, u)], axis=1)
        kept.append(sq[(sq <= K * K).all(1)])
    return np.concatenate(kept)[:n]


def _framed_gadget_squares(K, h, n, seed):
    rng = np.random.default_rng(seed)
    offsets = np.array([[-1.0, 0.0, 0.0], [0.0, h, 0.0], [1.0, 0.0, 0.0]])
    kept = []
    while sum(map(len, kept)) < n:
        kept.append(_gadget_placements(rng, 4096, offsets, K)[1])
    return np.concatenate(kept)[:n]


def _monochromatic(sq):
    two = 2.0 * sq
    near = (np.abs(two - np.round(two)) < BOUNDARY_TOL).any(1)
    cols = np.floor(two).astype(np.int64) % 8
    return int((~near & (cols[:, 0] == cols[:, 1])
                & (cols[:, 1] == cols[:, 2])).sum())


def test_gadget_frame_sampler_keeps_rotated_law():
    # second route: drawing in the triangle's frame, with midpoints in the
    # radius sqrt(K^2 - 1) ball, gives the squared norms the rotated
    # sampler gives
    h = sqrt(1 / 68)
    old = _rotated_gadget_squares(2.0, h, 20000, seed=0)
    new = _framed_gadget_squares(2.0, h, 20000, seed=1)
    for col in (1, 0):  # 2|b|^2 and 2|a|^2
        assert ks_2samp(2 * old[:, col], 2 * new[:, col]).pvalue > 1e-3
    # the thick-leg monochromatic counts are Poisson-like with mean ~28 per
    # 100,000 trials; the difference of the totals stays in a 4-sigma band
    legs = 1 + 1 / 68
    thick_h = sqrt(legs * legs - 1)
    want = sum(_monochromatic(_rotated_gadget_squares(2.0, thick_h, 100000, s))
               for s in range(4))
    got = sum(obtuse_gadget_audit(K=2.0, trials=100000, seed=s,
                                  legs=legs)["monochromatic"] for s in range(4))
    assert want > 40 and abs(got - want) <= 4 * sqrt(got + want)


def test_copies_match_brute_force_subsets():
    # oracle: a subset is a copy iff some bijection onto the pattern
    # preserves all squared distances; check every subset directly
    rng = np.random.default_rng(91)
    from itertools import permutations

    cases = []
    for _ in range(10):
        pts = set()
        while len(pts) < 7:
            pts.add(tuple(int(x) for x in rng.integers(0, 4, size=2)))
        R = PointSet.exact(sorted(pts))
        cases.append((R, sorted(int(i) for i in rng.choice(7, size=3, replace=False))))
    # 3-D lattice hosts and 4- and 5-point patterns. In the unit cube a
    # square, a regular tetrahedron and a square with a pendant edge have
    # nontrivial automorphisms, so each of their copies is reached by
    # several maps
    cube = PointSet.exact([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    symmetric = [(0, 1, 2, 3), (0, 3, 5, 6), (0, 1, 2, 3, 4)]
    assert [len(congruent_copies(cube, cube.select(i))) for i in symmetric] == [6, 2, 24]
    cases += [(cube, list(i)) for i in symmetric]
    rng = np.random.default_rng(92)
    for k in (4, 5) * 4:
        pts = set()
        while len(pts) < 9:
            pts.add(tuple(int(x) for x in rng.integers(0, 3, size=3)))
        R = PointSet.exact(sorted(pts))
        cases.append((R, sorted(int(i) for i in rng.choice(9, size=k, replace=False))))

    for R, pat_idx in cases:
        P = R.select(pat_idx)
        fam = congruent_copies(R, P)
        MR = sq_dist_matrix(R)
        MP = sq_dist_matrix(P)
        k = len(P)
        direct = set()
        for sub in combinations(range(len(R)), k):
            for perm in permutations(sub):
                if all(MP[a][b] == MR[perm[a]][perm[b]]
                       for a in range(k) for b in range(a + 1, k)):
                    direct.add(sub)
                    break
        assert fam.copies == tuple(sorted(direct))
        assert tuple(pat_idx) in direct


def _unreduced(R, P):
    """Every distance-preserving map of P into R, none skipped by symmetry."""
    return list(_distance_preserving_maps(P, R).maps)


def _copies_of(maps):
    return tuple(sorted({tuple(sorted(m)) for m in maps}))


def test_orbit_stabiliser_counts():
    # exact lane: each copy is the image of exactly |Aut(P)| maps
    cube6 = PointSet.exact([tuple((v >> c) & 1 for c in range(6)) for v in range(64)])
    square = PointSet.exact([(0, 0), (1, 0), (1, 1), (0, 1)])
    basis = PointSet.exact([tuple(int(i == j) for j in range(7)) for i in range(7)])
    for R, P, copies, automorphisms in ((cube6, square, 240, 8),
                                        (basis, basis.select(range(6)), 7, 720)):
        fam = congruent_copies(R, P)
        assert (len(fam), fam.automorphisms, fam.reduced) == (copies, automorphisms, True)
        maps = _unreduced(R, P)
        assert len(maps) == len(fam) * fam.automorphisms
        assert _copies_of(maps) == fam.copies
    # the heptagon triangle (0, 1, 3) is scalene: one map per copy
    R, P = heptagon_config()
    fam = congruent_copies(R, P)
    assert (len(fam), fam.automorphisms, fam.reduced) == (14, 1, True)
    assert len(_unreduced(R, P)) == 14


def test_simplex_arrow_search_finds_each_copy_once():
    host, pattern = regular_simplex(11, 1.0), regular_simplex(6, 1.0)
    search = _distance_preserving_maps(pattern, host, symmetric=True)
    assert (search.automorphisms, search.reduced) == (720, True)
    maps = list(search.maps)
    assert len(maps) == 462 == len(set(map(frozenset, maps)))


def test_arrow_reports_pattern_automorphisms():
    R, P = heptagon_config()
    assert arrows(R, P, 2).pattern_automorphisms == 1
    S = regular_simplex(4, 1.0)
    assert arrows(S, S, 2).pattern_automorphisms == 24


_lattice = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(0, 3)] * dim), min_size=3, max_size=9, unique=True))


@settings(max_examples=60, deadline=None)
@given(_lattice, st.data())
def test_reduced_copies_match_every_map(points, data):
    # the symmetry reduction keeps every copy the full enumeration finds, in
    # the exact lane and in the float lane after a rotation, a translation
    # and a scaling by up to 10^6 either way
    R = PointSet.exact(points)
    k = data.draw(st.integers(2, min(5, len(points))))
    idx = sorted(data.draw(st.lists(st.integers(0, len(points) - 1),
                                    min_size=k, max_size=k, unique=True)))
    fam = congruent_copies(R, R.select(idx))
    maps = _unreduced(R, R.select(idx))
    assert fam.reduced and tuple(idx) in fam.copies
    assert fam.copies == _copies_of(maps)
    assert len(maps) == len(fam) * fam.automorphisms

    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dim = len(points[0]) + 1
    A = np.hstack([np.array(points, dtype=float), np.zeros((len(points), 1))])
    scale = 10.0 ** data.draw(st.floats(-6.0, 6.0))
    Rf = PointSet.from_floats((A @ random_orthogonal(dim, rng).T + rng.standard_normal(dim))
                              * scale)
    famf = congruent_copies(Rf, Rf.select(idx))
    assert famf.reduced and famf.automorphisms == fam.automorphisms
    assert famf.copies == _copies_of(_unreduced(Rf, Rf.select(idx))) == fam.copies


def test_float_guard_falls_back_near_threshold():
    # the pattern's squared sides 1 and 1 + 0.9 eps match under the float
    # rule, so they form one class and swapping the end points is an
    # automorphism; the host distance 1 + 1.8 eps matches the second but
    # not the first. The copy {0, 1, 2} is then reached only by a map whose
    # twin under the swap, its least map, breaks a distance: a reduced
    # search would miss it, so the guard enumerates every map.
    eps = 1e-9
    s, t = sqrt(1 + 0.9 * eps), sqrt(1 + 1.8 * eps)
    P = PointSet.from_floats([[0.0], [1.0], [1.0 + s]])
    R = PointSet.from_floats([[-t], [0.0], [1.0], [1.0 + s]])
    fam = congruent_copies(R, P)
    assert (fam.automorphisms, fam.reduced) == (2, False)
    maps = _unreduced(R, P)
    assert (0, 1, 2) not in maps and (2, 1, 0) in maps
    assert fam.copies == _copies_of(maps) == ((0, 1, 2), (1, 2, 3))


def test_gadget_audit_other_dimensions_clean():
    for dim in (2, 4):
        rep = obtuse_gadget_audit(K=2.0, trials=10000, seed=8, dim=dim)
        assert rep["monochromatic"] == 0


def test_gadget_audit_deterministic_and_guarded():
    r1 = obtuse_gadget_audit(K=1.5, trials=5000, seed=9)
    r2 = obtuse_gadget_audit(K=1.5, trials=5000, seed=9)
    assert r1 == r2
    with pytest.raises(ValueError):
        obtuse_gadget_audit(K=0.5)
    with pytest.raises(ValueError):
        obtuse_gadget_audit(K=2.0, legs=2.5)
    # a segment cannot hold the triangle, and a negative count is no count
    for dim in (1, 0):
        with pytest.raises(ValueError, match="dim >= 2"):
            obtuse_gadget_audit(K=2.0, trials=10, dim=dim)
    with pytest.raises(ValueError, match="trials"):
        obtuse_gadget_audit(K=2.0, trials=-5)
    rep = obtuse_gadget_audit(K=2.0, trials=0)
    assert (rep["trials"], rep["attempts"], rep["ok"]) == (0, 0, True)
