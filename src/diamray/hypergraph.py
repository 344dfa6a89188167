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

import numpy as np

from .constructions import kahn_kalai_blocks, kahn_kalai_set
from .geometry import PointSet, diameter

# graphs with fewer pairs find cliques faster over bitsets than as array rows
_ARRAY_PAIRS = 100
_CHUNK = 1 << 13  # rows per numpy step


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
        form is taken as it is, and so is an int array of such rows.
        """
        if isinstance(edges, np.ndarray):
            if _canonical_rows(n_vertices, edges, uniformity):
                # __post_init__ would repeat these checks; one int per vertex
                ids, out = list(range(n_vertices)), []
                for s in range(0, len(edges), _CHUNK):
                    out.extend(zip(*[list(map(ids.__getitem__, col))
                                     for col in edges[s:s + _CHUNK].T.tolist()]))
                H = object.__new__(cls)
                H.__dict__.update(n_vertices=n_vertices, edges=tuple(out),
                                  uniformity=uniformity)
                return H
            edges = edges.tolist()
        edges = tuple(edges)
        if set(map(type, edges)) <= {tuple} and _lex_increasing(edges):
            # __post_init__ finishes the canonical test; input that fails
            # it is canonicalised and checked again, as any other input
            try:
                return cls(n_vertices, edges, uniformity)
            except ValueError:
                pass
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


def _canonical_rows(n: int, rows: np.ndarray, uniformity: int | None) -> bool:
    """True iff the non-empty int array rows would pass __post_init__."""
    if (not rows.size or rows.ndim != 2 or rows.dtype.kind not in "iu"
            or uniformity not in (None, rows.shape[1])):
        return False
    cols = rows.T
    # lex order of neighbouring rows, from the last column; equal rows fail
    less = cols[-1, :-1] < cols[-1, 1:]
    for c in cols[-2::-1]:
        less = (c[:-1] < c[1:]) | (c[:-1] == c[1:]) & less
    return bool(cols[0].min() >= 0 and cols[-1].max() < n and less.all()
                and all((a < b).all() for a, b in zip(cols, cols[1:])))


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


def _clique_rows(n: int, pair_edges, r: int) -> np.ndarray:
    """The r-cliques of a graph as (m, r) uint rows in _r_cliques' order."""
    later = np.zeros((n, n), dtype=bool)
    i, j = np.array(pair_edges, dtype=np.intp).T
    later[np.minimum(i, j), np.maximum(i, j)] = True
    ids = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    return np.concatenate([np.empty((0, r), ids.dtype), *_extend(ids, later, later, r)])


def _extend(rows, cand, later, r: int):
    """Yield, in lex order and in chunks, the r-cliques that extend rows;
    cand[k] marks the common neighbours after the last vertex of rows[k]."""
    need = r - rows.shape[1]
    # a row with fewer candidates than the clique still needs closes none
    keep = cand.sum(axis=1, dtype=np.int32) >= need
    rows, cand = rows[keep], cand[keep]
    # one flat scan is far faster than np.nonzero on 2-D bools
    k, v = np.divmod(np.flatnonzero(cand), len(later))
    for s in range(0, len(k), _CHUNK):
        ks, vs = k[s:s + _CHUNK], v[s:s + _CHUNK]
        grown = np.column_stack((rows[ks], vs.astype(rows.dtype)))
        yield from (_extend(grown, cand[ks] & later[vs], later, r) if need > 1
                    else [grown])


def clique_hypergraph(G: Hypergraph, r: int) -> Hypergraph:
    """r-uniform hypergraph whose edges are the r-cliques of the graph G;
    G itself for r = 2."""
    if r < 2:
        raise ValueError("uniformity r must be >= 2")
    if G.uniformity != 2 and (G.uniformity is not None
                              or any(len(e) != 2 for e in G.edges)):
        raise ValueError("clique_hypergraph needs a graph: every edge "
                         "must have 2 vertices")
    if r == 2:
        return G
    find = _r_cliques if len(G.edges) < _ARRAY_PAIRS else _clique_rows
    return Hypergraph.make(G.n_vertices, find(G.n_vertices, G.edges, r), uniformity=r)


def diameter_hypergraph(P: PointSet, r: int) -> Hypergraph:
    """r-uniform hypergraph whose edges are the r-cliques of the diameter graph."""
    return clique_hypergraph(diameter_graph(P), r)


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
