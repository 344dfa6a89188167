"""Diameter graphs and their r-uniform clique hypergraphs.

The r-uniform structure on a point set has one hyperedge per r-subset whose
points are pairwise at the diameter, i.e. per r-clique of the diameter
graph. Edges are kept as strictly sorted, deduplicated index tuples so that
results are canonical regardless of enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from operator import itemgetter, lt

from .constructions import kahn_kalai_blocks, kahn_kalai_set
from .geometry import PointSet, diameter


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a canonical list of hyperedges."""

    n_vertices: int
    edges: tuple
    uniformity: int | None = None

    def __post_init__(self):
        # each check is a C-level pass over the edges; the offending edge is
        # looked up only when a check fails
        n, edges = self.n_vertices, self.edges
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        lengths = set(map(len, edges))
        if 0 in lengths:
            raise ValueError("empty hyperedge")
        if self.uniformity is not None and lengths - {self.uniformity}:
            bad = next(e for e in edges if len(e) != self.uniformity)
            raise ValueError(f"edge {bad} breaks {self.uniformity}-uniformity")
        if not _strictly_sorted(edges, lengths):
            bad = next(e for e in edges if list(e) != sorted(set(e)))
            raise ValueError(f"edge {bad} is not strictly sorted")
        if edges and (min(map(itemgetter(0), edges)) < 0
                      or max(map(itemgetter(-1), edges)) >= n):
            bad = next(e for e in edges if e[0] < 0 or e[-1] >= n)
            raise ValueError(f"edge {bad} leaves the vertex range")
        # strictly increasing lex order rules out duplicates by itself
        if not _lex_increasing(edges) and len(set(edges)) < len(edges):
            seen = set()
            for e in edges:
                if e in seen:
                    raise ValueError(f"duplicate edge {e}")
                seen.add(e)

    @classmethod
    def make(cls, n_vertices: int, edges, uniformity: int | None = None) -> "Hypergraph":
        """Hypergraph on any edge list, in canonical form.

        The vertices of each edge are sorted and deduplicated, then the
        edges are sorted and deduplicated. A tuple of edges already in that
        form is taken as it is.
        """
        edges = tuple(edges)
        canonical = (set(map(type, edges)) <= {tuple}
                     and _strictly_sorted(edges, set(map(len, edges)))
                     and _lex_increasing(edges))
        if not canonical:
            edges = tuple(sorted({tuple(sorted(set(e))) for e in edges}))
        return cls(n_vertices, edges, uniformity)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n_vertices,
            "r": self.uniformity,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Hypergraph":
        try:
            n = _json_int(doc["n"], "vertex count")
            edges = [tuple(_json_int(v, "vertex id") for v in e) for e in doc["edges"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed hypergraph document: {exc}") from exc
        r = doc.get("r")
        return cls.make(n, edges, None if r is None else _json_int(r, "uniformity"))


def _json_int(value, what: str) -> int:
    """An integer read from JSON: an int, or a float with an integral value."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _strictly_sorted(edges, lengths) -> bool:
    """True iff every edge lists strictly increasing vertices.

    `lengths` is the set of edge lengths. Compares neighbouring positions
    column by column, one group of equal-length edges at a time.
    """
    for k in lengths:
        group = edges if len(lengths) == 1 else [e for e in edges if len(e) == k]
        for i in range(k - 1):
            if not all(map(lt, map(itemgetter(i), group),
                           map(itemgetter(i + 1), group))):
                return False
    return True


def _lex_increasing(edges) -> bool:
    return all(map(lt, edges, islice(edges, 1, None)))


def diameter_graph(P: PointSet) -> Hypergraph:
    """Graph joining exactly the pairs of points at distance diam(P)."""
    if len(P) < 2:
        raise ValueError("diameter graph needs at least two points")
    info = diameter(P)
    return Hypergraph.make(len(P), info.pairs, uniformity=2)


def _r_cliques(n: int, pair_edges, r: int) -> list:
    """All r-cliques of a graph, via ordered extension over adjacency bitsets.

    Each clique is a strictly increasing tuple and the list is in strictly
    increasing lex order, which is the canonical order of Hypergraph.make.
    """
    adj = [0] * n
    for i, j in pair_edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    out = []
    stack = []

    def extend(cand: int) -> None:
        need = r - len(stack)
        if need == 1:
            # the last level: every candidate closes a clique
            prefix = tuple(stack)
            while cand:
                low = cand & -cand
                out.append((*prefix, low.bit_length() - 1))
                cand ^= low
            return
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            stack.append(v)
            extend(cand & adj[v])
            stack.pop()

    extend((1 << n) - 1)
    return out


def diameter_hypergraph(P: PointSet, r: int) -> Hypergraph:
    """r-uniform hypergraph whose edges are the r-cliques of the diameter graph."""
    if r < 2:
        raise ValueError("uniformity r must be >= 2")
    base = diameter_graph(P)
    if r == 2:
        return base
    cliques = _r_cliques(base.n_vertices, base.edges, r)
    return Hypergraph.make(len(P), cliques, uniformity=r)


def verify_intersection_fact(n: int, r: int) -> dict:
    """Cross-check the partition set's hyperedges against set intersections.

    The clique route (diameter hypergraph) must coincide with the direct
    route: r-families of partition blocks pairwise intersecting in n/2
    elements. Returns a report with counts and, on mismatch, one offending
    family per direction.
    """
    P = kahn_kalai_set(n)
    blocks = kahn_kalai_blocks(n)
    H = diameter_hypergraph(P, r)
    half = n // 2
    direct = set()
    for family in combinations(range(len(blocks)), r):
        if all(len(blocks[i] & blocks[j]) == half
               for i, j in combinations(family, 2)):
            direct.add(family)
    clique_route = set(H.edges)
    missing = sorted(direct - clique_route)
    extra = sorted(clique_route - direct)
    return {
        "n": n,
        "r": r,
        "match": not missing and not extra,
        "hyperedge_count": len(clique_route),
        "direct_count": len(direct),
        "missing_from_cliques": missing[:3],
        "not_in_direct": extra[:3],
    }


def hopf_pannwitz_audit(P: PointSet) -> dict:
    """Check the planar bound: the diameter occurs at most n times."""
    if P.dim != 2:
        raise ValueError("audit applies to planar point sets only")
    G = diameter_graph(P)
    n = len(P)
    return {
        "points": n,
        "diameter_edges": G.n_edges,
        "bound": n,
        "ok": G.n_edges <= n,
        "attains_bound": G.n_edges == n,
    }
