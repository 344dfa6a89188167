"""Diameter graphs, r-clique hypergraphs, and the dual-route fact checks."""

import os
from itertools import combinations
from math import comb

import numpy as np
import pytest

from diamray import (
    Hypergraph,
    PointSet,
    clique_hypergraph,
    diameter,
    diameter_graph,
    diameter_hypergraph,
    find_congruence,
    hopf_pannwitz_audit,
    kahn_kalai_blocks,
    kahn_kalai_set,
    kneser_points,
    kneser_subsets,
    regular_polygon,
    regular_simplex,
    verify_intersection_fact,
)
from diamray.hypergraph import _ARRAY_PAIRS, _clique_rows, _r_cliques


def test_heptagon_diameter_graph_is_seven_cycle():
    G = diameter_graph(regular_polygon(7))
    assert G.n_edges == 7
    expected = {tuple(sorted((i, (i + 3) % 7))) for i in range(7)}
    assert set(G.edges) == expected


def test_petersen_structure():
    P = kneser_points(2, 2, 2)
    G = diameter_graph(P)
    subsets = kneser_subsets(2, 2, 2)
    expected = {(i, j) for i, j in combinations(range(10), 2)
                if not subsets[i] & subsets[j]}
    assert set(G.edges) == expected
    assert G.n_edges == 15
    degrees = [0] * 10
    for i, j in G.edges:
        degrees[i] += 1
        degrees[j] += 1
    assert set(degrees) == {3}


def test_simplex_diameter_graph_complete():
    for m in (3, 5):
        G = diameter_graph(regular_simplex(m, 1.0))
        assert G.n_edges == comb(m, 2)


def test_partition_set_n2_single_triple():
    H = diameter_hypergraph(kahn_kalai_set(2), 3)
    assert H.edges == ((0, 1, 2),)


def test_partition_set_n4_triples_match_intersections():
    P = kahn_kalai_set(4)
    blocks = kahn_kalai_blocks(4)
    H = diameter_hypergraph(P, 3)
    expected = {f for f in combinations(range(35), 3)
                if all(len(blocks[i] & blocks[j]) == 2
                       for i, j in combinations(f, 2))}
    assert set(H.edges) == expected
    assert H.n_edges == 945


def test_kneser_h3_empty():
    H = diameter_hypergraph(kneser_points(2, 2, 2), 3)
    assert H.n_edges == 0


@pytest.mark.parametrize("n,r,expect_edges", [(2, 3, 1), (4, 2, 315), (4, 4, 1050)])
def test_intersection_fact_reports(n, r, expect_edges):
    rep = verify_intersection_fact(n, r)
    assert rep["match"]
    assert rep["hyperedge_count"] == rep["direct_count"] == expect_edges


def test_hopf_pannwitz_polygons_and_random():
    rep = hopf_pannwitz_audit(regular_polygon(9))
    assert rep["ok"] and rep["attains_bound"] and rep["diameter_edges"] == 9
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(3, 51))
        rep = hopf_pannwitz_audit(PointSet.from_floats(rng.standard_normal((n, 2))))
        assert rep["ok"]


def test_hopf_pannwitz_collinear_and_dim_guard():
    rep = hopf_pannwitz_audit(PointSet.exact([[0, 0], [1, 0], [3, 0]]))
    assert rep["diameter_edges"] == 1
    with pytest.raises(ValueError):
        hopf_pannwitz_audit(PointSet.exact([[0, 0, 0], [1, 1, 1]]))


def test_hyperedges_induce_cliques_and_nest():
    P = kahn_kalai_set(4)
    h = {r: diameter_hypergraph(P, r) for r in (2, 3, 4)}
    pair_set = set(h[2].edges)
    for r in (3, 4):
        lower = set(h[r - 1].edges)
        for e in h[r].edges:
            for pair in combinations(e, 2):
                assert pair in pair_set
            for sub in combinations(e, r - 1):
                assert sub in lower


def test_hyperedges_span_regular_simplices():
    P = kahn_kalai_set(4)
    H = diameter_hypergraph(P, 3)
    d = diameter(P).value
    pattern = regular_simplex(3, d)
    for e in list(H.edges)[:5]:
        assert find_congruence(P.select(e), pattern) is not None


def test_r_cliques_against_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        adj = set(edges)
        for r in (2, 3, 4, 5):
            # the canonical order: strictly increasing tuples, lex-increasing
            got = _r_cliques(n, edges, r)
            want = sorted(c for c in combinations(range(n), r)
                          if all(p in adj for p in combinations(c, 2)))
            assert got == want


def _random_graph(rng, n, p, isolated=()):
    return Hypergraph.make(n, [e for e in combinations(range(n), 2)
                               if not set(e) & set(isolated) and rng.random() < p],
                           uniformity=2)


def test_array_cliques_match_bitset_and_brute_force():
    rng = np.random.default_rng(29)
    graphs = [_random_graph(rng, int(rng.integers(6, 21)), rng.uniform(0.3, 0.9))
              for _ in range(24)]
    # isolated vertices at both ends and inside, on each side of the crossover
    graphs += [_random_graph(rng, 12, 0.7, isolated=(0, 5, 11)),
               _random_graph(rng, 20, 0.8, isolated=(0, 7, 19))]
    sizes = {len(G.edges) >= _ARRAY_PAIRS for G in graphs}
    assert sizes == {False, True}
    for G in graphs:
        n, adj = G.n_vertices, set(G.edges)
        for r in (3, 4, 5):
            want = [c for c in combinations(range(n), r)
                    if all(p in adj for p in combinations(c, 2))]
            rows = _clique_rows(n, G.edges, r)
            assert rows.shape == (len(want), r)
            assert Hypergraph.make(n, rows, r).edges == tuple(want)
            assert _r_cliques(n, G.edges, r) == want
            assert clique_hypergraph(G, r).edges == tuple(want)


def test_clique_hypergraph_needs_a_graph():
    small = Hypergraph.make(5, [(0, 1, 2), (1, 2, 3)], 3)
    large = Hypergraph.make(10, list(combinations(range(10), 3)))
    assert large.n_edges >= _ARRAY_PAIRS > small.n_edges
    mixed = Hypergraph.make(4, [(0, 1), (1, 2, 3)])
    edgeless = Hypergraph.make(4, [], 3)
    for H in (small, large, mixed, edgeless):
        for r in (2, 3, 4):
            with pytest.raises(ValueError, match="2 vertices"):
                clique_hypergraph(H, r)
    # a graph given without its uniformity is still a graph
    G = Hypergraph.make(4, list(combinations(range(4), 2)))
    assert clique_hypergraph(G, 3).edges == tuple(combinations(range(4), 3))


def test_array_cliques_of_kneser_323():
    G = diameter_graph(kneser_points(3, 2, 3))
    assert len(G.edges) >= _ARRAY_PAIRS
    for r, count in ((3, 15400), (4, 0)):
        rows = _clique_rows(G.n_vertices, G.edges, r)
        assert rows.shape == (count, r)
        H = clique_hypergraph(G, r)
        assert H.edges == tuple(_r_cliques(G.n_vertices, G.edges, r))
        assert H.n_edges == count


def _make_outcome(n, edges, r):
    try:
        return Hypergraph.make(n, edges, r)
    except ValueError as exc:
        return str(exc)


def test_array_input_to_make_matches_the_tuple_path():
    good = [(0, 3), (1, 4), (2, 4)]
    cases = [
        good,                        # canonical
        good + [(4, 1)],             # unsorted row
        good + [(1, 1)],             # repeated vertex
        good + [(-1, 2)],            # negative vertex
        good + [(2, 5)],             # vertex equal to n
        good + [(1, 4)],             # duplicate row
        good[::-1],                  # out-of-order rows
    ]
    # each fault is tried in the given order and in lex order
    for edges in cases + [sorted(e) for e in cases]:
        for dtype in (np.int32, np.int64, np.uint16):
            if dtype is np.uint16 and any(v < 0 for e in edges for v in e):
                continue
            for r in (None, 2, 3):
                got = _make_outcome(5, np.array(edges, dtype=dtype), r)
                assert got == _make_outcome(5, edges, r)
                if isinstance(got, Hypergraph):
                    assert {type(v) for e in got.edges for v in e} == {int}
    # empty arrays, and a negative vertex count with no edges
    for n, r in ((4, 3), (-1, 2)):
        assert (_make_outcome(n, np.empty((0, 2), dtype=np.int64), r)
                == _make_outcome(n, [], r))


def test_hypergraph_canonicalization_and_json():
    H = Hypergraph.make(5, [(3, 1), (1, 3), (4, 0, 2)])
    assert H.edges == ((0, 2, 4), (1, 3))
    back = Hypergraph.from_json(H.to_json())
    assert back == H
    with pytest.raises(ValueError):
        Hypergraph.make(3, [(0, 5)])
    with pytest.raises(ValueError):
        Hypergraph.make(3, [(0, 1), (1, 2)], uniformity=3)
    with pytest.raises(ValueError):
        Hypergraph(3, ((),))
    # every fault is found whether or not the edges come in lex order
    mixed = [(0, 3), (1, 2, 4), (2, 4)]
    pairs = [(0, 3), (1, 4), (2, 4)]
    cases = [
        (mixed, (), None),          # empty edge
        (mixed, (4, 1), None),      # unsorted edge
        (mixed, (0, 4, 2), None),   # unsorted edge among mixed lengths
        (mixed, (1, 1), None),      # repeated vertex
        (mixed, (-1, 2), None),     # negative vertex
        (mixed, (2, 5), None),      # vertex equal to n
        (mixed, (1, 2, 4), None),   # duplicate edge
        (pairs, (1, 2, 3), 2),      # broken uniformity
        (pairs, (3,), 2),           # mixed edge lengths under uniformity
    ]
    for good, bad, r in cases:
        for order in (sorted, lambda es: es[2:] + es[:2]):
            Hypergraph(5, tuple(order(good)), r)
            with pytest.raises(ValueError):
                Hypergraph(5, tuple(order(good + [bad])), r)


@pytest.mark.parametrize("doc", [
    {"n": 3, "edges": [[0, 1.5]]},
    {"n": 3, "edges": [[0, True]]},
    {"n": 3, "edges": [[0, "1"]]},
    {"n": 3.5, "edges": [[0, 1]]},
    {"n": True, "edges": []},
    {"n": -2, "edges": []},
    {"n": 2, "r": True, "edges": [[0], [1]]},
])
def test_hypergraph_json_rejects_non_integers_and_negative_n(doc):
    with pytest.raises(ValueError):
        Hypergraph.from_json(doc)


def test_diameter_hypergraph_argument_guards():
    P = kahn_kalai_set(2)
    with pytest.raises(ValueError):
        diameter_hypergraph(P, 1)
    with pytest.raises(ValueError):
        diameter_graph(PointSet.exact([[0, 0]]))


@pytest.mark.skipif(not os.environ.get("DIAMRAY_SLOW"),
                    reason="about 2 s; set DIAMRAY_SLOW=1 to run")
def test_kk6_h3_array_path_matches_bitset_slow():
    G = diameter_graph(kahn_kalai_set(6))
    assert len(G.edges) == 46200
    H = clique_hypergraph(G, 3)
    want = _r_cliques(G.n_vertices, G.edges, 3)
    assert H.n_edges == len(want) == 1262800
    assert list(H.edges) == want
