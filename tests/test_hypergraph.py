"""Diameter graphs, r-clique hypergraphs, and the dual-route fact checks."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from diamray import (
    Hypergraph,
    PointSet,
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
from diamray.hypergraph import _r_cliques


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
