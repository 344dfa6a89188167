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

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import isfinite, isqrt, prod, sqrt
from operator import index

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
    """Parse an exact scalar from an int, a numpy integer, a Fraction, or a
    'num/den' string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(value, int):
        return value
    if isinstance(value, np.integer):
        return index(value)
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


def _json_int(value, what: str) -> int:
    """An integer read from JSON: an int, or a float with an integral value."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _json_float(value, what: str) -> float:
    """A float read from JSON: an int or a float, not a boolean or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} overflows a float") from None


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
        if isinstance(self.tolerance, bool) or not (
                isinstance(self.tolerance, (int, float))
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
        tol, pts, n = self.tolerance, self.points, len(self.points)
        if not all(map(isfinite, chain.from_iterable(pts))):
            i = next(i for i, p in enumerate(pts) if not all(map(isfinite, p)))
            raise ValueError(f"point {i} has a non-finite coordinate")
        order = sorted(range(n), key=[p[0] for p in pts].__getitem__)
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
        pts = tuple(tuple(map(float, p)) for p in points)
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
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        if not isinstance(raw, list):
            raise ValueError("points must be a list of points")
        pts = []
        for i, p in enumerate(raw):
            if not isinstance(p, list):
                raise ValueError(f"point {i} is not a list of coordinates")
            try:
                pts.append([parse_exact(x) if mode == EXACT
                            else _json_float(x, "float coordinate") for x in p])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"point {i}: {exc}") from exc
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError("labels must be a list")
        if mode == EXACT:
            ps = cls.exact(pts, labels)
        else:
            ps = cls.from_floats(pts, labels, doc.get("tolerance", DEFAULT_TOLERANCE))
        if "dim" in doc and _json_int(doc["dim"], "dim") != ps.dim:
            raise ValueError("declared dim does not match points")
        return ps


def sq_dist(p, q, exact: bool) -> Scalar:
    """Squared Euclidean distance of two coordinate sequences."""
    if exact:
        return sum((a - b) * (a - b) for a, b in zip(p, q))
    return float(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))


_INT64_MAX = 2 ** 63 - 1
_BLAS_POINTS = 32  # smaller sets multiply faster in int64 than through BLAS


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


def _gram(A: np.ndarray) -> np.ndarray:
    """A @ A.T (per matrix of a stack), in float64 BLAS while its partial
    sums stay integers < 2^53."""
    if (A.dtype == np.int64 and len(A) >= _BLAS_POINTS
            and 2 * A.shape[1] * int(A.max()) ** 2 < 2 ** 53):
        gram = (F := A.astype(np.float64)) @ F.T
        # cast in place: a second n x n array would raise peak memory
        np.copyto(gram.view(np.int64), gram, casting="unsafe")
        return gram.view(np.int64)
    return A @ A.swapaxes(-1, -2)


def _sq_dists(A: np.ndarray) -> np.ndarray:
    """Squared distances among the rows of A, or among those of each matrix
    in a stack, from one Gram expansion |a|^2 + |b|^2 - 2 a.b. Float rows
    are centred first, which keeps the expansion's cancellation error below
    the distances when the set is small and far from the origin, and the
    float result is clipped at 0 and symmetrised, with a zero diagonal."""
    is_float = A.dtype == np.float64
    if is_float:
        A = A - A.mean(axis=-2, keepdims=True)
    # a float overflow is raised below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (A * A).sum(axis=-1)
        D = norms[..., :, None] + norms[..., None, :] - 2 * _gram(A)
    if is_float:
        if not np.isfinite(D).all():
            raise ValueError("squared distances overflow a float; "
                             "use the exact lane or rescale the points")
        D = np.maximum(D, 0.0)
        D = (D + D.swapaxes(-1, -2)) / 2.0
        diagonal = np.arange(D.shape[-1])
        D[..., diagonal, diagonal] = 0.0
    return D


def sq_dist_matrix(P: PointSet) -> np.ndarray:
    """Squared-distance matrix of a point set from one Gram expansion
    (`_sq_dists`), a read-only symmetric ndarray: int64, or Python ints and
    Fractions (object dtype) in the exact lane, float64 in the float lane."""
    if P.is_exact:
        A = _int64_gram_array(P.points)
        if A is None:
            A = np.array(P.points, dtype=object)
    else:
        A = P.as_array()
    D = _sq_dists(A)
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


def _diameter_pairs(P: PointSet) -> tuple:
    """(value, sq, pairs, near) of a set of two or more points: the diameter,
    its square, and the index arrays (i, j), i < j, of the pairs attaining it
    and of the near misses, the pairs that match it only at 10x the tolerance."""
    D = sq_dist_matrix(P)
    best = D.item(D.argmax())
    # best - x <= eps * best is the lane's rule for x and best, as x <= best;
    # the exact lane's eps = 0 makes it x == best, with no near misses
    eps = 0 if P.is_exact else P.tolerance
    near = D == best if P.is_exact else best - D <= 10 * eps * best
    # one flat scan is faster than np.nonzero on 2-D bools
    i, j = np.divmod(np.flatnonzero(near), len(D))
    upper = i < j
    i, j = i[upper], j[upper]
    hit = best - D[i, j] <= eps * best
    return _float_root(best), best, (i[hit], j[hit]), (i[~hit], j[~hit])


def diameter(P: PointSet) -> DiameterInfo:
    """Largest pairwise distance and the realizing pairs (0 for a singleton)."""
    if len(P) == 1:
        return DiameterInfo(0.0, 0 if P.is_exact else 0.0, ())
    value, best, pairs, near = _diameter_pairs(P)
    return DiameterInfo(value, best, *(tuple(zip(i.tolist(), j.tolist()))
                                       for i, j in (pairs, near)))


def cartesian_product(*sets: PointSet) -> PointSet:
    """Cartesian product set: coordinates concatenated, |P_1|...|P_k| points
    with the last set varying fastest, unlabelled.

    The squared diameter of the product is the sum of the sets' squared
    diameters.
    """
    if not sets:
        raise ValueError("cartesian_product needs at least one set")
    mode = EXACT if all(P.is_exact for P in sets) else FLOAT
    pts = [sum(p, ()) for p in product(*(P.points for P in sets))]
    if mode == FLOAT:
        pts = [tuple(map(float, p)) for p in pts]
    return PointSet(tuple(pts), mode, None, max(P.tolerance for P in sets))


def _pattern_order(rows) -> list:
    # most-constrained first: many distinct distances => few candidate images
    distinct = [len(set(row)) for row in rows]
    return sorted(range(len(rows)), key=lambda i: (-distinct[i], i))


# entries of one (keys, n, n) comparison in _near_bitsets: about 8 MB per
# float64 temporary, where a 15-key block on 2,000 points would take 480 MB
_NEAR_BLOCK = 1 << 20


def _near_bitsets(D: np.ndarray, keys, eps) -> list:
    """near[h][x]: bitset of the host points at squared distance x from h.

    x matches a host distance y by `_same_distance` with eps (equality at
    eps = 0). One broadcast compares a block of k keys with the whole
    n x n matrix D, k the largest with k * n^2 <= _NEAR_BLOCK but at least
    1, so a host of more than 1,024 points compares one key at a time. A
    block with an exact key past int64 is compared as Python ints.
    """
    keys = list(keys)
    near = [dict.fromkeys(keys, 0) for _ in range(len(D))]
    step = max(1, _NEAR_BLOCK // D.size)
    for s in range(0, len(keys), step):
        block = keys[s:s + step]
        X = np.array(block)[:, None, None]
        hit = np.abs(D - X) <= eps * np.maximum(D, X)
        packed = np.packbits(hit, axis=2, bitorder="little")
        for k, h in np.argwhere(packed.any(axis=2)).tolist():
            near[h][block[k]] = int.from_bytes(packed[k, h].tobytes(), "little")
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


def _distance_preserving_maps(P: PointSet, Q: PointSet,
                              symmetric: bool = False) -> tuple:
    """(maps, automorphisms, reduced): the injective maps of the pattern P
    into the host Q that keep all squared distances, lazily, as tuples m
    with m[p] the host point of pattern point p; |Aut(P)| when `symmetric`
    (None otherwise); and whether the search reduced by Aut(P). A float set
    on either side puts both in the float lane, at the larger of the two
    tolerances.

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
    return maps, automorphisms, reduced


def find_congruence(P: PointSet, Q: PointSet) -> tuple | None:
    """Search for a distance-preserving bijection from P onto Q, as the
    tuple m with m[p] the point of Q that p goes to.

    Decides congruence intrinsically on squared-distance matrices, so the
    ambient dimensions may differ. Returns None when no bijection exists.
    """
    if len(P) != len(Q):
        raise ValueError("congruence needs equal cardinalities")
    return next(_distance_preserving_maps(P, Q)[0], None)


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
