"""Point sets with exact-rational or tolerant float arithmetic.

Everything downstream (diameter graphs, congruent-copy search, embedding
certificates) works on squared pairwise distances, so this module keeps two
arithmetic lanes: integer/Fraction coordinates whose squared distances are
exact, and float coordinates whose squared distances a, b match when
|a - b| <= tol * max(a, b) (`_same_distance`), a rule that does not depend
on scale. The exact lane is the same rule at eps = 0, so `diameter` and the
copy search have one path for both lanes. A set's squared distances are one
read-only ndarray from one Gram expansion: int64 where that is provably
exact, Python ints and Fractions (object dtype) otherwise, and float64 from
centred coordinates in the float lane. Congruence and congruent-copy search
share one backtracker over per-distance bitsets.

The copy search finds each copy once. A copy is the image of |Aut(P)|
maps, where Aut(P) is the group of permutations of the pattern that keep
its distance classes: one squared distance in the exact lane, a chain of
distances linked by the float rule in the float lane. Along the placement
order, orbit k is the orbit of the k-th point under the pointwise
stabiliser of the points before it (Sims' stabiliser chain), and a later
point of orbit k may only land above the image of the k-th point. This
keeps exactly the lexicographically least map of each coset. The float
lane takes the reduction only when every distance of a class matches the
same host pairs, which makes a map composed with an automorphism keep all
distances again; otherwise it enumerates every map. All containers are
frozen; every operation is a pure function.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import acos, degrees, isfinite, isqrt, prod, sqrt
from typing import NamedTuple

import numpy as np

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOLERANCE = 1e-9

Scalar = int | Fraction | float


def _same_distance(x: float, y: float, eps: float) -> bool:
    """The float lane's rule for two squared distances: |x - y| <= eps *
    max(x, y). It has no absolute floor, so it does not depend on scale."""
    return abs(x - y) <= eps * max(x, y)


def parse_exact(value) -> int | Fraction:
    """Parse an exact scalar from an int, Fraction, or 'num/den' string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        return int(frac) if frac.denominator == 1 else frac
    raise TypeError(f"not an exact scalar: {value!r} (floats need float mode)")


def _scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


@dataclass(frozen=True)
class PointSet:
    """A labeled finite set of points sharing one ambient dimension.

    mode is "exact" (int/Fraction coordinates, exact comparisons) or "float"
    (float coordinates, relative tolerance `tolerance`).
    """

    points: tuple
    mode: str
    labels: tuple | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.points:
            raise ValueError("point set must be nonempty")
        dim = len(self.points[0])
        if dim < 1:
            raise ValueError("points need dimension >= 1")
        if any(len(p) != dim for p in self.points):
            raise ValueError("all points must share one dimension")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("labels must match point count")
        if not (isinstance(self.tolerance, (int, float))
                and isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, "
                             f"got {self.tolerance!r}")
        self._check_distinct()

    def _check_distinct(self):
        """Float points coincide when every coordinate meets |a - b| <=
        tol * max(1, |a|, |b|), an absolute floor: a two-point set is similar
        to every segment, so no scale-free rule could reject [[1e-13], [0.0]]
        and still accept the unit segment. Sorted by first coordinate, the
        slack b - a - tol * max(1, |a|, |b|) grows with b >= a while tol < 1,
        so each point's scan stops at the first later point out of tolerance
        (below tol = 1/4, where float rounding cannot break that order). The
        least coinciding pair (i, j), i < j, is named."""
        if self.mode == EXACT:
            if len(set(self.points)) != len(self.points):
                raise ValueError("duplicate points")
            return
        for i, p in enumerate(self.points):
            if not all(map(isfinite, p)):
                raise ValueError(f"point {i} has a non-finite coordinate")
        tol, pts, n = self.tolerance, self.points, len(self.points)
        order = sorted(range(n), key=lambda k: pts[k][0])
        pairs = []
        for s in range(n - 1):
            p = pts[order[s]]
            for t in range(s + 1, n):
                q = pts[order[t]]
                if not q[0] - p[0] <= tol * max(1.0, abs(p[0]), abs(q[0])):
                    if tol < 0.25:
                        break
                elif all(abs(a - b) <= tol * max(1.0, abs(a), abs(b))
                         for a, b in zip(p, q)):
                    pairs.append(sorted((order[s], order[t])))
        if pairs:
            i, j = min(pairs)
            raise ValueError(f"points {i} and {j} coincide within tolerance")

    @classmethod
    def exact(cls, points, labels=None) -> "PointSet":
        pts = tuple(tuple(parse_exact(x) for x in p) for p in points)
        return cls(pts, EXACT, tuple(labels) if labels else None)

    @classmethod
    def from_floats(cls, points, labels=None,
                    tolerance: float = DEFAULT_TOLERANCE) -> "PointSet":
        pts = tuple(tuple(float(x) for x in p) for p in points)
        return cls(pts, FLOAT, tuple(labels) if labels else None, tolerance)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)

    def select(self, indices) -> "PointSet":
        """Sub-point-set on the given indices, keeping mode and labels."""
        idx = tuple(indices)
        labels = tuple(self.labels[i] for i in idx) if self.labels else None
        return PointSet(tuple(self.points[i] for i in idx), self.mode,
                        labels, self.tolerance)

    def to_json(self) -> dict:
        doc = {
            "schema": 1,
            "mode": self.mode,
            "dim": self.dim,
            "points": [[_scalar_to_json(x) for x in p] for p in self.points],
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        if self.mode == FLOAT:
            doc["tolerance"] = self.tolerance
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PointSet":
        try:
            mode = doc["mode"]
            raw = doc["points"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed point-set document: missing {exc}") from exc
        labels = doc.get("labels")
        if mode == EXACT:
            ps = cls.exact(raw, labels)
        elif mode == FLOAT:
            ps = cls.from_floats(raw, labels, doc.get("tolerance", DEFAULT_TOLERANCE))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if "dim" in doc and doc["dim"] != ps.dim:
            raise ValueError("declared dim does not match points")
        return ps


def sq_dist(p, q, exact: bool) -> Scalar:
    """Squared Euclidean distance of two coordinate sequences."""
    if exact:
        return sum((a - b) * (a - b) for a, b in zip(p, q))
    return float(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))


_INT64_MAX = 2 ** 63 - 1


def _int64_gram_array(points):
    """The integer points as int64, translated into [0, w]^dim, or None when
    the int64 Gram expansion of them might not be exact.

    After the translation by -min no intermediate of |a|^2 + |b|^2 - 2 a.b
    exceeds 2 * dim * w^2, which is checked against 2^63 in Python ints.
    """
    try:
        A = np.array(points)
    except OverflowError:
        return None
    # Fractions and ints past int64 give another dtype
    if A.dtype != np.int64:
        return None
    lo, hi = int(A.min()), int(A.max())
    if 2 * A.shape[1] * (hi - lo) ** 2 > _INT64_MAX:
        return None
    if lo:
        A -= lo
    return A


def sq_dist_matrix(P: PointSet) -> np.ndarray:
    """Squared-distance matrix of a point set from one Gram expansion
    |a|^2 + |b|^2 - 2 a.b, a read-only symmetric ndarray: int64, or Python
    ints and Fractions (object dtype) in the exact lane, float64 in the
    float lane. Float points are centred first, which keeps the expansion's
    cancellation error below the distances when the set is small and far
    from the origin."""
    if P.is_exact:
        A = _int64_gram_array(P.points)
        if A is None:
            A = np.array(P.points, dtype=object)
    else:
        A = P.as_array()
        A -= A.mean(axis=0)
    # a float overflow is raised below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (A * A).sum(axis=1)
        D = norms[:, None] + norms[None, :] - 2 * (A @ A.T)
    if not P.is_exact:
        if not np.isfinite(D).all():
            raise ValueError("squared distances overflow a float; "
                             "use the exact lane or rescale the points")
        D = np.maximum(D, 0.0)
        D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
    D.flags.writeable = False
    return D


@dataclass(frozen=True)
class DiameterInfo:
    """Diameter value plus every pair attaining it.

    In the float lane a pair attains the diameter when its squared distance
    x matches the largest one, best, under the lane's rule: best - x <=
    tolerance * best. near_misses lists the pairs that match only at 10x
    the tolerance; they are reported so borderline float inputs are visible.
    """

    value: float
    sq: Scalar
    pairs: tuple
    near_misses: tuple = ()


def _float_root(sq) -> float:
    """sqrt(sq) as a float, also for an exact sq past float range."""
    try:
        return sqrt(float(sq))
    except OverflowError:
        pass
    try:
        # sq >= 2**1024 here, so the integer root is exact far below an ulp
        return float(isqrt(int(sq)))
    except OverflowError:
        raise ValueError("the diameter overflows a float") from None


def diameter(P: PointSet) -> DiameterInfo:
    """Largest pairwise distance and the realizing pairs (0 for a singleton)."""
    if len(P) == 1:
        return DiameterInfo(0.0, 0 if P.is_exact else 0.0, ())
    D = sq_dist_matrix(P)
    best = D.item(D.argmax())
    # best - x <= eps * best is the lane's rule for x and best, as x <= best;
    # the exact lane's eps = 0 makes it x == best
    eps = 0 if P.is_exact else P.tolerance
    gap = best - D
    i, j = np.nonzero(gap <= 10 * eps * best)
    upper = i < j
    i, j = i[upper], j[upper]
    hit = gap[i, j] <= eps * best
    return DiameterInfo(_float_root(best), best,
                        tuple(zip(i[hit].tolist(), j[hit].tolist())),
                        tuple(zip(i[~hit].tolist(), j[~hit].tolist())))


def cartesian_product(P: PointSet, Q: PointSet) -> PointSet:
    """Cartesian product set: coordinates concatenated, |P|*|Q| points,
    unlabelled.

    The squared diameter of the product is diam^2(P) + diam^2(Q).
    """
    mode = EXACT if (P.is_exact and Q.is_exact) else FLOAT
    pts = [tuple(p) + tuple(q) for p in P.points for q in Q.points]
    if mode == FLOAT:
        pts = [tuple(map(float, p)) for p in pts]
    return PointSet(tuple(pts), mode, None, max(P.tolerance, Q.tolerance))


def _pattern_order(rows) -> list:
    # most-constrained first: many distinct distances => few candidate images
    distinct = [len(set(row)) for row in rows]
    return sorted(range(len(rows)), key=lambda i: (-distinct[i], i))


def _near_bitsets(D: np.ndarray, keys, eps) -> list:
    """near[h][x]: bitset of the host points at squared distance x from h.

    x matches a host distance y by `_same_distance` with eps (equality at
    eps = 0), applied to the whole matrix D at once.
    """
    near = [dict.fromkeys(keys, 0) for _ in range(len(D))]
    for x in keys:
        hit = np.abs(D - x) <= eps * np.maximum(D, x)
        packed = np.packbits(hit, axis=1, bitorder="little")
        for h in np.flatnonzero(packed.any(axis=1)):
            near[h][x] = int.from_bytes(packed[h].tobytes(), "little")
    return near


def _links(rows, order) -> list:
    """links[k]: (depth i, squared distance) for each point placed before
    order[k], the distances the k-th placement must keep."""
    return [[(i, rows[p][q]) for i, q in enumerate(order[:k])]
            for k, p in enumerate(order)]


def _placements(links, near, above, prefix=()):
    """Depth-first search placing one pattern point per depth, after the
    host points `prefix` taken as given; yields the list of host points by
    depth (one shared list, rewritten as the search goes on).

    Host points are tried in ascending index. The candidates at depth k are
    the unused points, ANDed with the `near` rows of the host points already
    placed at the distances of links[k] (Ullmann's refinement), and above
    the image of every depth listed in above[k].
    """
    image = list(prefix) + [0] * (len(links) - len(prefix))
    last = len(links) - 1

    def extend(k: int, free: int):
        cand = free
        for i, x in links[k]:
            cand &= near[image[i]][x]
        if above[k]:
            cand &= -2 << max(map(image.__getitem__, above[k]))
        while cand:
            low = cand & -cand
            cand ^= low
            image[k] = low.bit_length() - 1
            if k == last:
                yield image
            else:
                yield from extend(k + 1, free ^ low)

    free = (1 << len(near)) - 1
    for h in prefix:
        free ^= 1 << h
    return extend(len(prefix), free)


def _distance_classes(rows, eps):
    """The pattern's distance classes and its matrix of class labels.

    The sorted distances are cut wherever two neighbours do not match under
    the lane's rule, so a class is a chain of matching distances: one
    squared distance in the exact lane (eps = 0). The diagonal gets label 0,
    every class a label from 1 on.
    """
    classes = []
    for x in sorted({x for i, r in enumerate(rows) for j, x in enumerate(r) if i != j}):
        if classes and _same_distance(classes[-1][-1], x, eps):
            classes[-1].append(x)
        else:
            classes.append([x])
    label = {x: c for c, chain in enumerate(classes, 1) for x in chain}
    labels = [[0 if i == j else label[x] for j, x in enumerate(r)]
              for i, r in enumerate(rows)]
    return classes, labels


def _orbit_chain(labels, order) -> list:
    """orbits[k]: the orbit of order[k] under the label-preserving
    permutations that fix order[:k] pointwise.

    A point q joins when one search of the pattern into itself finds such a
    permutation with order[:k] pinned to themselves and order[k] pinned to
    q; only the q that keep order[k]'s labels to order[:k] are searched.
    """
    n = len(order)
    links = _links(labels, order)
    near = _near_bitsets(np.array(labels), {x for r in labels for x in r}, 0)
    unbounded = [()] * n
    orbits = []
    for k, p in enumerate(order):
        fits = (1 << n) - 1
        for i, x in links[k]:
            fits &= near[order[i]][x]
        orbits.append([p] + [q for q in order[k + 1:] if fits >> q & 1 and next(
            _placements(links, near, unbounded, order[:k] + [q]), None) is not None])
    return orbits


class _MapSearch(NamedTuple):
    """The maps of a pattern into a host, lazily, and how they were found.

    automorphisms is |Aut(P)| when the search was asked to reduce by the
    pattern's symmetry (None otherwise); reduced says whether it did.
    """

    maps: Iterator[tuple]
    automorphisms: int | None
    reduced: bool


def _distance_preserving_maps(P: PointSet, Q: PointSet,
                              symmetric: bool = False) -> _MapSearch:
    """Injective maps of the pattern P into the host Q that keep all squared
    distances, as tuples m with m[p] the host point of pattern point p.
    A float set on either side puts both in the float lane, at the larger
    of the two tolerances.

    Pattern points are placed in `_pattern_order` by `_placements`. Without
    `symmetric`, every such map is enumerated. With it, the maps m and m o s
    for a pattern automorphism s have the same image, and only the
    lexicographically least map of each coset m o Aut(P) is kept: along the
    stabiliser chain of `_orbit_chain` (Sims), a later pattern point q in
    orbit k must land above the image of order[k]. Aut(P) is the group of
    permutations preserving the labels of `_distance_classes`.

    In the float lane the reduction is sound only if each class's distances
    match the same host pairs, for then m o s keeps every distance when m
    does. Otherwise, when a host distance matches some but not all
    distances of one class, every map is enumerated and `reduced` is False.
    """
    exact = P.is_exact and Q.is_exact
    eps = 0 if exact else max(P.tolerance, Q.tolerance)
    dtype = None if exact else float
    # the host's matrix first: bench/tracing.py counts the first one's pairs
    host = np.asarray(sq_dist_matrix(Q), dtype)
    rows = np.asarray(sq_dist_matrix(P), dtype).tolist()
    near = _near_bitsets(host, {x for r in rows for x in r}, eps)
    order = _pattern_order(rows)
    n = len(order)
    above = [()] * n
    automorphisms, reduced = None, False
    if symmetric:
        classes, labels = _distance_classes(rows, eps)
        orbits = _orbit_chain(labels, order)
        automorphisms = prod(map(len, orbits))
        reduced = all(bits[x] == bits[chain[0]]
                      for chain in classes for x in chain[1:] for bits in near)
        if reduced:
            above = [tuple(k for k in range(j) if order[j] in orbits[k])
                     for j in range(n)]
    depth_of = sorted(range(n), key=order.__getitem__)
    placed = _placements(_links(rows, order), near, above)
    maps = (tuple(map(image.__getitem__, depth_of)) for image in placed)
    return _MapSearch(maps, automorphisms, reduced)


def find_congruence(P: PointSet, Q: PointSet) -> tuple | None:
    """Search for a distance-preserving bijection from P onto Q, as the
    tuple m with m[p] the point of Q that p goes to.

    Decides congruence intrinsically on squared-distance matrices, so the
    ambient dimensions may differ. Returns None when no bijection exists.
    """
    if len(P) != len(Q):
        raise ValueError("congruence needs equal cardinalities")
    return next(_distance_preserving_maps(P, Q).maps, None)


def angle_at(apex, b, c) -> float:
    """Law-of-cosines angle at `apex` in degrees, in [0, 180]."""
    u = np.asarray(b, dtype=float) - np.asarray(apex, dtype=float)
    v = np.asarray(c, dtype=float) - np.asarray(apex, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("degenerate angle: zero-length side at apex")
    cos = float(np.dot(u, v) / (nu * nv))
    return degrees(acos(max(-1.0, min(1.0, cos))))


def circumcenter(a, b, c) -> np.ndarray:
    """Circumcenter of a nondegenerate triangle, in the triangle's plane."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(b, dtype=float) - a
    v = np.asarray(c, dtype=float) - a
    G = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = np.array([u @ u / 2.0, v @ v / 2.0])
    try:
        alpha, beta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("collinear points have no circumcenter") from exc
    return a + alpha * u + beta * v


def _frame(A: np.ndarray) -> tuple:
    """Q, R of A = QR with diag(R) >= 0, for one matrix or a stack of them.

    The columns of Q are the Gram-Schmidt frame of A's columns; fixing the
    signs of diag(R) makes A -> Q continuous along optimizer trajectories,
    and makes Q Haar-distributed when A is Gaussian.
    """
    Q, R = np.linalg.qr(A)
    signs = np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return Q * signs[..., None, :], R * signs[..., None]


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (signed QR of a Gaussian)."""
    return _frame(rng.standard_normal((dim, dim)))[0]
