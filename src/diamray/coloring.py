"""Exact hypergraph coloring: proper = no monochromatic hyperedge.

The solver is a self-contained backtracking search. Vertices are assigned
in index order and colors tried in ascending order with at most one brand
new color per step, so the first solution found is the lexicographically
least proper coloring; that canonical witness is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .geometry import PointSet
from .hypergraph import Hypergraph, clique_hypergraph, diameter_graph

CHAIN_GUARD = 40  # chain_report refuses larger sets: chi is found exactly


@dataclass(frozen=True)
class Coloring:
    """Per-vertex color indices, 0-based."""

    colors: tuple


def is_proper(H: Hypergraph, coloring: Coloring) -> bool:
    """True iff every hyperedge sees at least two colors."""
    if len(coloring.colors) != H.n_vertices:
        raise ValueError("coloring must cover every vertex")
    cols = coloring.colors
    for e in H.edges:
        first = cols[e[0]]
        if all(cols[v] == first for v in e[1:]):
            return False
    return True


def colorable(H: Hypergraph, num_colors: int) -> Coloring | None:
    """Exact decision: a proper coloring with at most num_colors colors.

    Returns the lexicographically least proper coloring under the vertex
    index order, or None when none exists. Deterministic. Forward checking
    (an edge monochromatic except for one later vertex forbids that color
    there) only prunes branches without proper completions, so the first
    coloring found is still the global lexicographic minimum.

    Forward checking alone also keeps every edge from completing
    monochromatic. An edge is checked when its second-largest vertex gets
    a color c: if the rest of the edge already has color c, c becomes
    forbidden at the edge's largest vertex until that assignment is undone.
    So the largest vertex can never close the edge in one color, and no
    check is needed there.
    """
    if num_colors < 0:
        raise ValueError("number of colors must be nonnegative")
    n = H.n_vertices
    if n == 0:
        return Coloring(())
    if num_colors == 0:
        return None
    if any(len(e) == 1 for e in H.edges):
        return None

    # an edge starts forcing at its second largest vertex. Vertex sets are
    # bitsets: forcing[v] maps the rest of each such edge to the largest
    # vertices it forces, members[c] holds the vertices colored c and
    # forbidden[c] those where c is forbidden
    forcing = [{} for _ in range(n)]
    for e in H.edges:
        rest = 0
        for u in e[:-2]:
            rest |= 1 << u
        group = forcing[e[-2]]
        group[rest] = group.get(rest, 0) | 1 << e[-1]
    forcing = [tuple(group.items()) for group in forcing]

    colors = [0] * n
    members = [0] * num_colors
    forbidden = [0] * num_colors
    others = [[x for x in range(num_colors) if x != c] for c in range(num_colors)]

    def dfs(v: int, used: int) -> bool:
        if v == n:
            return True
        bit = 1 << v
        for c in range(min(used, num_colors - 1) + 1):
            forb = forbidden[c]
            if forb & bit:
                continue
            mem = members[c]
            forced = 0
            for rest, lasts in forcing[v]:
                if rest & mem == rest:
                    forced |= lasts
            # a vertex newly denied c is dead if every other color is denied
            dead = forced & ~forb
            if dead:
                for x in others[c]:
                    dead &= forbidden[x]
            if dead:
                continue
            colors[v] = c
            members[c] = mem | bit
            forbidden[c] = forb | forced
            if dfs(v + 1, max(used, c + 1)):
                return True
            members[c] = mem
            forbidden[c] = forb
        return False

    if dfs(0, 0):
        return Coloring(tuple(colors))
    return None


def _greedy_clique_bound(H: Hypergraph) -> int:
    """Size of a greedy clique among the 2-element edges (a lower bound on chi)."""
    n = H.n_vertices
    adj = [set() for _ in range(n)]
    for e in H.edges:
        if len(e) == 2:
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique: list = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    return max(len(clique), 1)


def chromatic_number(H: Hypergraph, use_clique_bound: bool = True):
    """Exact chromatic number with a witness coloring.

    Undefined (raises) when a singleton edge is present. The clique-based
    lower bound only skips color counts that cannot work; disabling it never
    changes the answer.
    """
    if any(len(e) == 1 for e in H.edges):
        raise ValueError("chromatic number undefined with singleton edges")
    if H.n_vertices == 0:
        return 0, Coloring(())
    if not H.edges:
        return 1, Coloring(tuple(0 for _ in range(H.n_vertices)))
    lb = 2
    if use_clique_bound:
        lb = max(lb, _greedy_clique_bound(H))
    for k in range(lb, H.n_vertices + 1):
        witness = colorable(H, k)
        if witness is not None:
            return k, witness
    raise AssertionError("unreachable: all-distinct coloring is always proper")


def _canonical_colorings(n: int, max_colors: int):
    # restricted-growth strings: each new color index appears only after all
    # smaller ones; exhaustive up to color renaming
    cur = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(cur)
            return
        cap = min(used, max_colors - 1)
        for c in range(cap + 1):
            cur[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def brute_force_chromatic(H: Hypergraph, max_colors: int = 4) -> int | None:
    """Reference chromatic number by exhaustive enumeration.

    Filters every canonical coloring with at most max_colors colors through
    is_proper, smallest color count first. Properness is invariant under
    color renaming, so canonical-form enumeration decides exactly. Returns
    None when max_colors colors do not suffice. Exponential; use as a
    cross-check on small instances only.
    """
    if H.n_vertices == 0:
        return 0
    for k in range(1, max_colors + 1):
        for colors in _canonical_colorings(H.n_vertices, k):
            if is_proper(H, Coloring(colors)):
                return k
    return None


def grouped_coloring(base: Coloring, r: int) -> Coloring:
    """Merge blocks of r-1 consecutive color classes into one color each."""
    if r < 2:
        raise ValueError("need r >= 2")
    return Coloring(tuple(c // (r - 1) for c in base.colors))


def chain_report(P: PointSet, r_max: int = 4) -> dict:
    """Audit the chromatic chain of the diameter hypergraphs of P.

    Verifies chi(H_r) <= chi(H_{r-1}), the ratio bound
    chi(H_r) <= ceil(chi(H_2)/(r-1)), and that merging r-1 classes of an
    optimal diameter-graph coloring properly colors H_r.
    """
    if len(P) > CHAIN_GUARD:
        raise ValueError(
            f"instance too large for exact audit (> {CHAIN_GUARD} points)")
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    chis = {}
    witnesses = {}
    hypergraphs = {}
    G = diameter_graph(P)
    for r in range(2, r_max + 1):
        hypergraphs[r] = clique_hypergraph(G, r)
        chis[r], witnesses[r] = chromatic_number(hypergraphs[r])
    chain_ok = all(chis[r] <= chis[r - 1] for r in range(3, r_max + 1))
    ratio_ok = all(chis[r] <= ceil(chis[2] / (r - 1)) for r in range(2, r_max + 1))
    grouped_ok = all(
        is_proper(hypergraphs[r], grouped_coloring(witnesses[2], r))
        for r in range(2, r_max + 1)
    )
    return {
        "points": len(P),
        "chi": chis,
        "chain_ok": chain_ok,
        "ratio_ok": ratio_ok,
        "grouped_coloring_ok": grouped_ok,
        "ok": chain_ok and ratio_ok and grouped_ok,
    }
