"""Diameter graphs and their r-uniform clique hypergraphs.

The r-uniform structure on a point set has one hyperedge per r-subset whose
points are pairwise at the diameter, i.e. per r-clique of the diameter
graph. Edges are strictly increasing tuples of int indices in strictly
increasing lex order, the one form every Hypergraph is built in, so results
are canonical regardless of enumeration order. Large graphs and their
clique hypergraphs keep column-major int rows as the storage, behind a
read-only sequence, so the canonical check reads contiguous columns;
`diameter_graph` fills its rows from the index arrays of the distance
matrix, with no tuple per pair, under the pair rule of `geometry.diameter`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import eq, index, itemgetter

import numpy as np

from .constructions import kahn_kalai_blocks, kahn_kalai_set
from .geometry import PointSet, _diameter_pairs, _json_int

# graphs with fewer pairs find cliques faster over bitsets than as array rows
_ARRAY_PAIRS = 100
_CHUNK = 1 << 13  # rows per numpy step


class _Rows(Sequence):
    """Read-only edge tuples over a private (m, r) int array; equal to, and
    hashed as, their tuple. np.asarray gives the rows without a copy."""

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(self._rows[i])
        return tuple(self._rows[i].tolist())

    def __iter__(self):
        for s in range(0, len(self._rows), _CHUNK):
            yield from zip(*self._rows[s:s + _CHUNK].T.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self._rows, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Rows)):
            return NotImplemented
        return len(other) == len(self) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus canonical hyperedges, a tuple of int tuples or _Rows;
    construction rejects any other edges, and make canonicalises them."""

    n_vertices: int
    edges: Sequence
    uniformity: int | None = None

    def __post_init__(self):
        n, edges, r = self.n_vertices, self.edges, self.uniformity
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if r is not None and r < 1:
            raise ValueError(f"uniformity {r} is below 1")
        if isinstance(edges, _Rows):
            if not _canonical_rows(n, edges._rows, r):
                raise ValueError("edge rows are not canonical on these vertices")
            return
        if not _int_ids(edges) or edges != _canonical(edges):
            raise ValueError("edges are not a tuple of strictly increasing "
                             "int tuples in strictly increasing lex order")
        # canonical order puts an empty edge, and the least first vertex, first
        if edges and not edges[0]:
            raise ValueError("empty hyperedge")
        if r is not None and set(map(len, edges)) - {r}:
            bad = next(e for e in edges if len(e) != r)
            raise ValueError(f"edge {bad} breaks {r}-uniformity")
        if edges and (edges[0][0] < 0 or max(map(itemgetter(-1), edges)) >= n):
            bad = next(e for e in edges if e[0] < 0 or e[-1] >= n)
            raise ValueError(f"edge {bad} leaves the vertex range")

    @classmethod
    def make(cls, n_vertices: int, edges, uniformity: int | None = None) -> "Hypergraph":
        """Hypergraph on any edge list, in canonical form.

        Edges that pass __post_init__ as given are kept: a tuple of tuples,
        or an int array of rows, copied first unless it is read-only and
        owns its data. Any other input has the vertices of each edge turned
        into ints, sorted and deduplicated, then the edges, and is checked
        again. Numpy integers become ints; an edge with any other vertex id,
        a bool or a float included, raises a ValueError that names it.
        """
        if isinstance(edges, np.ndarray):
            rows = edges
            if rows.flags.writeable or not rows.flags.owndata:
                rows = rows.copy()
                rows.flags.writeable = False
            try:
                return cls(n_vertices, _Rows(rows), uniformity)
            except ValueError:
                edges = edges.tolist()
        edges = tuple(edges)
        try:
            return cls(n_vertices, edges, uniformity)
        except ValueError:
            return cls(n_vertices, _canonical(map(_int_edge, edges)), uniformity)

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


def _canonical(edges) -> tuple:
    """Each edge sorted and deduplicated, then the edges sorted and deduplicated."""
    return tuple(sorted({tuple(sorted(set(e))) for e in edges}))


def _int_ids(edges) -> bool:
    """True iff every edge is a collection of Python ints, bools excluded."""
    try:
        return {*map(type, chain.from_iterable(edges))} <= {int}
    except TypeError:
        return False


def _int_edge(e) -> tuple:
    """The edge e as a tuple of ints, from ints or numpy integers; anything
    else, bools included, raises a ValueError that names the edge."""
    try:
        ids = tuple(map(index, e))
    except TypeError:
        ids = None
    if ids is None or bool in {*map(type, e)}:
        raise ValueError(f"edge {e!r} is not a collection of int vertex ids")
    return ids


def _canonical_rows(n: int, rows: np.ndarray, uniformity: int | None) -> bool:
    """True iff rows is a non-empty (m, r) int array of canonical edges on n
    vertices, with r equal to uniformity unless that is None."""
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
    i, j = _diameter_pairs(P)[2]
    if len(i) < _ARRAY_PAIRS:
        pairs = tuple(zip(i.tolist(), j.tolist()))
    else:
        # as int rows, large graphs are checked in numpy and not copied
        pairs = np.empty((len(i), 2), np.min_scalar_type(len(P)), order="F")
        pairs[:, 0], pairs[:, 1] = i, j
        pairs.flags.writeable = False
    return Hypergraph.make(len(P), pairs, uniformity=2)


def _r_cliques(n: int, pair_edges, r: int) -> list:
    """All r-cliques of a graph, via ordered extension over adjacency bitsets.

    Each clique is a strictly increasing tuple and the list is in strictly
    increasing lex order, which is the canonical order of Hypergraph.
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
    """The r-cliques of a graph as (m, r) uint rows in _r_cliques' order,
    column-major, read-only and owning their data, so make keeps them."""
    later = np.zeros((n, n), dtype=bool)
    i, j = np.array(pair_edges, dtype=np.intp).T
    later[np.minimum(i, j), np.maximum(i, j)] = True
    ids = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    pieces = [np.empty((0, r), ids.dtype), *_extend(ids, later, later, r)]
    rows = np.empty((sum(map(len, pieces)), r), ids.dtype, order="F")
    np.concatenate(pieces, out=rows)
    rows.flags.writeable = False
    return rows


def _extend(rows, cand, later, r: int):
    """Yield, in lex order and in column-major chunks, the r-cliques that
    extend rows; cand[k] marks the common neighbours after the last vertex
    of rows[k]."""
    n, need = len(later), r - rows.shape[1]
    counts = cand.sum(axis=1, dtype=np.int32)
    # a row with fewer candidates than the clique still needs closes none
    keep = counts >= need
    rows, cand, counts = rows[keep], cand[keep], counts[keep]
    if need == 1:
        # the last level: each candidate of a row closes one clique
        grown = np.empty((counts.sum(), r), rows.dtype, order="F")
        for c in range(r - 1):
            grown[:, c] = np.repeat(rows[:, c], counts)
        grown[:, -1] = np.flatnonzero(cand) % n
        yield grown
        return
    # one flat scan is far faster than np.nonzero on 2-D bools
    k, v = np.divmod(np.flatnonzero(cand), n)
    for s in range(0, len(k), _CHUNK):
        ks, vs = k[s:s + _CHUNK], v[s:s + _CHUNK]
        grown = np.column_stack((rows[ks], vs.astype(rows.dtype)))
        yield from _extend(grown, cand[ks] & later[vs], later, r)


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
    elements, grown in index order from set intersections alone. Returns a
    report with counts and, on mismatch, up to three offending families per
    direction.
    """
    H = diameter_hypergraph(kahn_kalai_set(n), r)
    blocks = kahn_kalai_blocks(n)
    # meets[i]: the later blocks that meet block i in n/2 elements
    meets = [{j for j in range(i + 1, len(blocks))
              if len(blocks[i] & blocks[j]) == n // 2}
             for i in range(len(blocks))]
    # each family carries the later blocks that meet all of its members
    families = [((i,), later) for i, later in enumerate(meets)]
    for _ in range(r - 1):
        families = [((*f, j), later & meets[j])
                    for f, later in families for j in later]
    direct = {f for f, _ in families}
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
