"""Point sets with exact-rational or tolerant float arithmetic.

Everything downstream (diameter graphs, congruent-copy search, embedding
certificates) works on squared pairwise distances, so this module keeps two
arithmetic lanes: integer/Fraction coordinates whose squared distances are
exact, and float coordinates compared with a scale-aware relative tolerance.
All containers are frozen; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import acos, degrees, sqrt

import numpy as np

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOLERANCE = 1e-9

Scalar = int | Fraction | float


def close(a: float, b: float, eps: float = DEFAULT_TOLERANCE) -> bool:
    """Scale-aware float equality: |a-b| <= eps * max(1, |a|, |b|)."""
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def parse_exact(value) -> int | Fraction:
    """Parse an exact scalar from an int, Fraction, or 'num/den' string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        frac = Fraction(value)
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
        self._check_distinct()

    def _check_distinct(self):
        if self.mode == EXACT:
            if len(set(self.points)) != len(self.points):
                raise ValueError("duplicate points")
        else:
            for i, j in combinations(range(len(self.points)), 2):
                if all(close(a, b, self.tolerance)
                       for a, b in zip(self.points[i], self.points[j])):
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
        return np.array([[float(x) for x in p] for p in self.points], dtype=float)

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


@dataclass(frozen=True)
class SqDistMatrix:
    """Symmetric matrix of squared pairwise distances."""

    entries: tuple
    exact: bool
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def validate_metric(self) -> None:
        """Check zero diagonal, symmetry, nonnegativity, triangle inequality.

        O(n^3); intended for tests and small inputs, not construction.
        """
        n = self.n
        for i in range(n):
            if self.entries[i][i] != 0:
                raise AssertionError("nonzero diagonal")
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise AssertionError("asymmetric entries")
                if self.entries[i][j] < 0:
                    raise AssertionError("negative squared distance")
        d = [[sqrt(float(self.entries[i][j])) for j in range(n)] for i in range(n)]
        slack = 0.0 if self.exact else 1e-9
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if d[i][j] > d[i][k] + d[k][j] + slack * max(1.0, d[i][j]):
                        raise AssertionError(f"triangle inequality fails at {i},{j},{k}")


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


def sq_dist_matrix(P: PointSet) -> SqDistMatrix:
    """Squared-distance matrix of a point set; exact when the mode is exact."""
    n = len(P)
    A = _int64_gram_array(P.points) if P.is_exact else None
    if A is not None:
        # integer fast path: the Gram expansion in int64 stays exact
        norms = (A * A).sum(axis=1)
        D = norms[:, None] + norms[None, :] - 2 * (A @ A.T)
        entries = tuple(map(tuple, D.tolist()))
        return SqDistMatrix(entries, exact=True, tolerance=P.tolerance)
    if P.is_exact:
        rows = []
        for i in range(n):
            rows.append(tuple(sq_dist(P.points[i], P.points[j], True) for j in range(n)))
        return SqDistMatrix(tuple(rows), exact=True, tolerance=P.tolerance)
    A = P.as_array()
    norms = (A * A).sum(axis=1)
    D = norms[:, None] + norms[None, :] - 2.0 * (A @ A.T)
    D = np.maximum(D, 0.0)
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    entries = tuple(map(tuple, D.tolist()))
    return SqDistMatrix(entries, exact=False, tolerance=P.tolerance)


@dataclass(frozen=True)
class DiameterInfo:
    """Diameter value plus every pair attaining it.

    near_misses lists pairs within 10x tolerance below the attainment
    threshold; they are reported so borderline float inputs are visible.
    """

    value: float
    sq: Scalar
    pairs: tuple
    near_misses: tuple = ()


def diameter(P: PointSet) -> DiameterInfo:
    """Largest pairwise distance and the realizing pairs (0 for a singleton)."""
    n = len(P)
    if n == 1:
        return DiameterInfo(0.0, 0 if P.is_exact else 0.0, ())
    M = sq_dist_matrix(P).entries
    pairs = []
    near = []
    if P.is_exact:
        # one scan: a new maximum restarts the list of pairs
        best = M[0][1]
        for i in range(n - 1):
            row = M[i]
            for j in range(i + 1, n):
                x = row[j]
                if x > best:
                    best = x
                    pairs = [(i, j)]
                elif x == best:
                    pairs.append((i, j))
    else:
        # the thresholds need the maximum first: take each row's maximum in
        # C, then scan only rows whose maximum reaches the near-miss
        # threshold (sqrt is monotone, so the other rows hold no candidate)
        tails = [M[i][i + 1:] for i in range(n - 1)]
        tops = list(map(max, tails))
        best = max(tops)
        dmax = sqrt(float(best))
        lo = dmax * (1.0 - P.tolerance)
        lo_near = dmax * (1.0 - 10.0 * P.tolerance)
        for i, tail in enumerate(tails):
            if sqrt(tops[i]) < lo_near:
                continue
            for j, x in enumerate(tail, i + 1):
                d = sqrt(x)
                if d >= lo:
                    pairs.append((i, j))
                elif d >= lo_near:
                    near.append((i, j))
    return DiameterInfo(sqrt(float(best)), best, tuple(pairs), tuple(near))


def cartesian_product(P: PointSet, Q: PointSet) -> PointSet:
    """Cartesian product set: coordinates concatenated, |P|*|Q| points.

    The squared diameter of the product is diam^2(P) + diam^2(Q).
    """
    mode = EXACT if (P.is_exact and Q.is_exact) else FLOAT
    pts = []
    labels = []
    for i, p in enumerate(P.points):
        for j, q in enumerate(Q.points):
            if mode == FLOAT:
                pts.append(tuple(float(x) for x in p) + tuple(float(x) for x in q))
            else:
                pts.append(tuple(p) + tuple(q))
            if P.labels and Q.labels:
                labels.append(f"({P.labels[i]},{Q.labels[j]})")
    tol = max(P.tolerance, Q.tolerance)
    return PointSet(tuple(pts), mode, tuple(labels) if labels else None, tol)


@dataclass(frozen=True)
class CongruenceMap:
    """Bijection pattern index -> host index preserving squared distances."""

    mapping: tuple

    def as_dict(self) -> dict:
        return dict(enumerate(self.mapping))

    def image(self) -> tuple:
        return self.mapping


def _distance_eq(MP: SqDistMatrix, MQ: SqDistMatrix):
    if MP.exact and MQ.exact:
        return lambda a, b: a == b
    eps = max(MP.tolerance, MQ.tolerance)
    return lambda a, b: close(float(a), float(b), eps)


def _pattern_order(M: SqDistMatrix) -> list:
    # most-constrained first: many distinct distances => few candidate images
    n = M.n
    distinct = [len(set(M.entries[i])) for i in range(n)]
    return sorted(range(n), key=lambda i: (-distinct[i], i))


def _row_multisets_match(rp, rq, eq) -> bool:
    # sorted squared-distance rows; elementwise closeness is a sound filter
    sp = sorted(float(x) for x in rp)
    sq_ = sorted(float(x) for x in rq)
    return all(eq(a, b) for a, b in zip(sp, sq_))


def find_congruence(P: PointSet, Q: PointSet) -> CongruenceMap | None:
    """Search for a distance-preserving bijection from P onto Q.

    Decides congruence intrinsically on squared-distance matrices, so the
    ambient dimensions may differ. Returns None when no bijection exists.
    """
    if len(P) != len(Q):
        raise ValueError("congruence needs equal cardinalities")
    n = len(P)
    MP, MQ = sq_dist_matrix(P), sq_dist_matrix(Q)
    eq = _distance_eq(MP, MQ)
    order = _pattern_order(MP)
    cand = []
    for p in order:
        row = MP.entries[p]
        cand.append([h for h in range(n)
                     if _row_multisets_match(row, MQ.entries[h], eq)])
        if not cand[-1]:
            return None

    assigned_host = [-1] * n
    used = [False] * n

    def bt(k: int) -> bool:
        if k == n:
            return True
        p = order[k]
        for h in cand[k]:
            if used[h]:
                continue
            ok = True
            for i in range(k):
                if not eq(MP.entries[p][order[i]], MQ.entries[h][assigned_host[i]]):
                    ok = False
                    break
            if ok:
                assigned_host[k] = h
                used[h] = True
                if bt(k + 1):
                    return True
                used[h] = False
        return False

    if not bt(0):
        return None
    mapping = [0] * n
    for k, p in enumerate(order):
        mapping[p] = assigned_host[k]
    return CongruenceMap(tuple(mapping))


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


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian with sign fix)."""
    A = rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))
