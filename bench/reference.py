"""Independent reference answers for the benchmark's operations.

Nothing here imports diamray: every expected value comes from a closed form,
a brute-force search written for this benchmark, or Python-int arithmetic,
so a defect in the program under test cannot leak into its own reference.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from math import cos, pi, sin

import numpy as np


# ---------------------------------------------------------------- distances

def exact_sq_dist(p, q):
    """Squared distance in Python ints / Fractions (never wraps)."""
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def exact_diameter(points):
    """(max squared distance, sorted diameter pairs) with exact arithmetic."""
    best = None
    pairs = []
    for i, j in combinations(range(len(points)), 2):
        d = exact_sq_dist(points[i], points[j])
        if best is None or d > best:
            best, pairs = d, [(i, j)]
        elif d == best:
            pairs.append((i, j))
    return best, pairs


def float_diameter(points, tol=1e-9, guard=100.0):
    """Diameter pairs of a float set by direct differences.

    Returns (sq, pairs). Raises ValueError when some distance falls inside
    the band between tol and guard*tol below the maximum, where the answer
    would hinge on the tolerance rule rather than on the geometry.
    """
    # one row of the upper triangle at a time, so the reference never holds
    # more than the n(n-1)/2 distances (the program's own matrix is n x n)
    A = np.asarray(points, dtype=float)
    n = len(A)
    rows = []
    for i in range(n - 1):
        diff = A[i] - A[i + 1:]
        rows.append(np.sqrt((diff * diff).sum(axis=1)))
    d = np.concatenate(rows) if rows else np.zeros(0)
    iu = np.triu_indices(n, 1)
    dmax = float(d.max())
    attained = d >= dmax * (1.0 - tol)
    ambiguous = (~attained) & (d >= dmax * (1.0 - guard * tol))
    if ambiguous.any():
        raise ValueError("distance within the ambiguous band below the diameter")
    pairs = [(int(i), int(j)) for i, j, a in zip(iu[0], iu[1], attained) if a]
    return dmax * dmax, pairs


# ------------------------------------------------------------ closed forms

def polygon_coords(n, radius=1.0, phase=0.0):
    """Vertices of a regular n-gon, vertex i at angle phase + 2*pi*i/n."""
    return [(radius * cos(phase + 2 * pi * i / n),
             radius * sin(phase + 2 * pi * i / n)) for i in range(n)]


def polygon_diameter_pairs(n):
    """Odd n: each vertex meets the two farthest ones (n pairs); even n: n/2."""
    if n % 2 == 0:
        return sorted((i, i + n // 2) for i in range(n // 2))
    h = n // 2
    return sorted({tuple(sorted((i, (i + h) % n))) for i in range(n)})


def polygon_triangle_copies(n):
    """The 2n copies of the chord-step (1, 2, 3) triangle (0, 1, 3), n >= 7."""
    if n < 7:
        raise ValueError("closed form needs n >= 7")
    out = set()
    for i in range(n):
        out.add(tuple(sorted((i, (i + 1) % n, (i + 3) % n))))
        out.add(tuple(sorted((i, (i + 2) % n, (i + 3) % n))))
    return sorted(out)


def kk_blocks(n):
    """Halves X of [2n] containing 1, in lexicographic order."""
    return [frozenset((1,) + rest)
            for rest in combinations(range(2, 2 * n + 1), n - 1)]


def kk_diameter_sq(n):
    """Partitions meeting in t sit at 2n^2 - 2(t^2 + (n-t)^2), largest at t = n/2."""
    return n * n


def kk_adjacency(n):
    """Diameter pairs of the partition set: blocks meeting in n/2 elements."""
    blocks = kk_blocks(n)
    return _graph(len(blocks), lambda i, j: len(blocks[i] & blocks[j]) == n // 2)


def kneser_subsets(n, k, r):
    d = r * n + (k - 1) * (r - 1)
    return [frozenset(c) for c in combinations(range(1, d + 1), n)]


def kneser_adjacency(n, k, r):
    """Diameter pairs of the Kneser point set: disjoint subsets."""
    subs = kneser_subsets(n, k, r)
    return _graph(len(subs), lambda i, j: not subs[i] & subs[j])


def _graph(m, adjacent):
    adj = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if adjacent(i, j):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def graph_pairs(adj):
    return sorted((i, j) for i in range(len(adj)) for j in adj[i] if i < j)


def cliques(adj, r):
    """Sorted r-cliques by extending each clique with larger common neighbours."""
    out = []

    def grow(clique, cand):
        if len(clique) == r:
            out.append(tuple(clique))
            return
        for v in sorted(cand):
            grow(clique + [v], {u for u in cand & adj[v] if u > v})

    for v in range(len(adj)):
        grow([v], {u for u in adj[v] if u > v})
    return sorted(out)


def edges_digest(edges, chunk=65536):
    """sha256 of a canonical edge list, stored for instances too big to redo.

    Hashes int32 rows a chunk at a time, so checking H3(kk6) does not copy
    its 1.26M edges while the program's hypergraph is still alive.
    """
    h = hashlib.sha256()
    for k in range(0, len(edges), chunk):
        h.update(np.asarray(edges[k:k + chunk], dtype=np.int32).tobytes())
    return h.hexdigest()


def kneser_chi(n, k, r):
    """Alon-Frankl-Lovasz: chi(KG^r(d, n)) = ceil((d - r(n-1)) / (r-1))."""
    d = r * n + (k - 1) * (r - 1)
    return -(-(d - r * (n - 1)) // (r - 1))


# ---------------------------------------------------------------- coloring

def is_proper(colors, edges):
    return all(len({colors[v] for v in e}) > 1 for e in edges)


def lex_least_coloring(n, edges, k):
    """Lexicographically least proper coloring with at most k colors.

    Plain backtracking in vertex order with restricted growth (a new color
    only as the next unused index); an edge is tested once its largest
    vertex is colored. No pruning beyond that, so it is slow but plain.
    Returns a tuple, or None when no such coloring exists.
    """
    closing = [[] for _ in range(n)]
    for e in edges:
        closing[max(e)].append([v for v in e if v != max(e)])
    colors = [0] * n

    def dfs(v, used):
        if v == n:
            return True
        for c in range(min(used + 1, k)):
            if any(all(colors[u] == c for u in rest) for rest in closing[v]):
                continue
            colors[v] = c
            if dfs(v + 1, max(used, c + 1)):
                return True
        return False

    if n == 0:
        return ()
    return tuple(colors) if dfs(0, 0) else None


def chromatic(n, edges, max_k=12):
    """Smallest k with a proper coloring, and the lex-least witness."""
    for k in range(1, max_k + 1):
        w = lex_least_coloring(n, edges, k)
        if w is not None:
            return k, w
    raise ValueError("chromatic number above max_k")


# ------------------------------------------------------------- point sets

def clique_hypergraph(n, pairs, r):
    if r == 2:
        return sorted(pairs)
    adj = [set() for _ in range(n)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    return cliques(adj, r)


def chain_chis(n, pairs, r_max=4):
    """chi of H_2..H_r_max by brute force, for sets of at most 12 points."""
    if n > 12:
        raise ValueError("brute force is for at most 12 points")
    return {r: chromatic(n, clique_hypergraph(n, pairs, r))[0]
            for r in range(2, r_max + 1)}
