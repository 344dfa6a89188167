"""Exact coloring solver: decisions, witnesses, chain inequalities, oracle."""

from itertools import combinations
from math import ceil

import numpy as np
import pytest

from diamray import (
    Coloring,
    Hypergraph,
    brute_force_chromatic,
    chain_report,
    chromatic_number,
    colorable,
    diameter_hypergraph,
    grouped_coloring,
    heptagon_config,
    is_proper,
    kahn_kalai_set,
    kneser_points,
    diameter_graph,
    regular_polygon,
    regular_simplex,
    PointSet,
)
from diamray.coloring import _canonical_colorings
from diamray.verify import random_lattice_set


def _fano() -> Hypergraph:
    return Hypergraph.make(
        7, [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)],
        uniformity=3)


def _petersen() -> Hypergraph:
    return diameter_graph(kneser_points(2, 2, 2))


def test_is_proper_basics():
    K3 = Hypergraph.make(3, [(0, 1), (1, 2), (0, 2)], uniformity=2)
    assert is_proper(K3, Coloring((0, 1, 2)))
    assert not is_proper(K3, Coloring((0, 0, 1)))  # edge {0,1} monochromatic
    assert not is_proper(K3, Coloring((0, 0, 0)))
    with pytest.raises(ValueError):
        is_proper(K3, Coloring((0, 1)))


def test_fano_three_colorable_not_two():
    fano = _fano()
    assert colorable(fano, 2) is None
    witness = colorable(fano, 3)
    assert witness is not None and is_proper(fano, witness)
    chi, w = chromatic_number(fano)
    assert chi == 3 and is_proper(fano, w)
    # independent route: exhaustive canonical enumeration
    assert brute_force_chromatic(fano) == 3


def test_petersen_coloring():
    G = _petersen()
    assert colorable(G, 2) is None
    w = colorable(G, 3)
    assert w is not None and is_proper(G, w)
    assert brute_force_chromatic(G) == 3


def test_no_edges_one_color():
    H = Hypergraph.make(4, [])
    w = colorable(H, 1)
    assert w == Coloring((0, 0, 0, 0))
    assert chromatic_number(H) == (1, Coloring((0, 0, 0, 0)))


def test_empty_hypergraph_and_zero_colors():
    empty = Hypergraph.make(0, [])
    for k in (0, 1, 3):
        assert colorable(empty, k) == Coloring(())
    assert chromatic_number(empty) == (0, Coloring(()))
    assert brute_force_chromatic(empty) == 0
    assert colorable(Hypergraph.make(3, []), 0) is None
    assert colorable(Hypergraph.make(3, [(0, 1)]), 0) is None
    with pytest.raises(ValueError, match="nonnegative"):
        colorable(empty, -1)


def test_singleton_edge_rules():
    H = Hypergraph.make(2, [(0,)])
    assert colorable(H, 5) is None
    with pytest.raises(ValueError):
        chromatic_number(H)


def test_complete_graphs():
    for m in (2, 4, 6):
        G = diameter_graph(regular_simplex(m, 1.0))
        chi, w = chromatic_number(G)
        assert chi == m and is_proper(G, w)


def test_partition_set_h3_regression():
    # frozen baseline: the exact solver settled chi = 4 (it refutes 3 colors
    # on the way), and the witness must be proper
    H = diameter_hypergraph(kahn_kalai_set(4), 3)
    chi, w = chromatic_number(H)
    assert chi == 4 and is_proper(H, w)


def test_witness_is_lexicographically_least():
    # (seed, instances, n bound, edge probability per edge size, color counts)
    corpora = [
        (31, 15, 9, {2: 0.45, 3: 0.15}, (2, 3)),
        (37, 40, 10, {2: 0.4, 3: 0.3, 4: 0.3}, (1, 2, 3, 4)),
    ]
    for seed, instances, n_bound, probs, color_counts in corpora:
        rng = np.random.default_rng(seed)
        for _ in range(instances):
            n = int(rng.integers(4, n_bound))
            edges = [e for size, p in probs.items()
                     for e in combinations(range(n), size) if rng.random() < p]
            H = Hypergraph.make(n, edges)
            for r in color_counts:
                got = colorable(H, r)
                # oracle: canonical colorings enumerate in lexicographic order
                want = next((Coloring(c) for c in _canonical_colorings(n, r)
                             if is_proper(H, Coloring(c))), None)
                assert got == want


def test_decision_invariant_under_relabeling():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        H = Hypergraph.make(n, edges)
        perm = list(rng.permutation(n))
        relabeled = Hypergraph.make(n, [tuple(perm[v] for v in e) for e in edges])
        for r in (1, 2, 3):
            assert (colorable(H, r) is None) == (colorable(relabeled, r) is None)


def test_clique_bound_pruning_never_changes_answers():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        edges += [e for e in combinations(range(n), 3) if rng.random() < 0.1]
        H = Hypergraph.make(n, edges)
        assert chromatic_number(H)[0] == chromatic_number(H, use_clique_bound=False)[0]


def test_solver_matches_brute_force_on_random_corpus():
    rng = np.random.default_rng(67)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.35]
        edges += [e for e in combinations(range(n), 3) if rng.random() < 0.2]
        H = Hypergraph.make(n, edges)
        ref = brute_force_chromatic(H, max_colors=4)
        chi, _ = chromatic_number(H)
        if ref is None:
            assert chi > 4
        else:
            assert chi == ref


def test_grouped_coloring_merges_classes():
    base = Coloring((0, 1, 2, 3, 4, 5))
    assert grouped_coloring(base, 3).colors == (0, 0, 1, 1, 2, 2)
    assert grouped_coloring(base, 2) == base


def test_chain_report_simplex6():
    rep = chain_report(regular_simplex(6, 1.0), r_max=3)
    assert rep["ok"]
    assert rep["chi"][2] == 6 and rep["chi"][3] == 3 == ceil(6 / 2)


def test_chain_report_heptagon():
    R, _ = heptagon_config()
    rep = chain_report(R, r_max=3)
    assert rep["ok"] and rep["chi"][2] == 3


def test_chain_report_random_planar():
    rng = np.random.default_rng(71)
    for _ in range(8):
        P = PointSet.from_floats(rng.standard_normal((10, 2)))
        assert chain_report(P, r_max=4)["ok"]
    for _ in range(8):
        assert chain_report(random_lattice_set(rng, 10, 3), r_max=4)["ok"]


def test_chain_report_guard():
    with pytest.raises(ValueError):
        chain_report(regular_polygon(50), r_max=3)


def test_odd_cycle_chain():
    P = regular_polygon(9)
    rep = chain_report(P, r_max=4)
    assert rep["ok"] and rep["chi"][2] == 3 and rep["chi"][3] == 1
