"""Generators for the point-set families used throughout the package.

Combinatorial families (partition sets, characteristic-vector sets, bricks,
the cube-corner star) are built with integer coordinates in exact mode, so
their squared distances are integers. Metric families (regular simplices,
polygons) live in float mode; their exactness is recovered at the
squared-distance level where needed. Every simplex, regular or given by its
sides, is realized by one Gram factorization with vertex 0 at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import cos, isfinite, pi, radians, sin, sqrt

import numpy as np

from .geometry import (
    EXACT,
    PointSet,
    cartesian_product,
    parse_exact,
)


def segment(length) -> PointSet:
    """Two points at the given distance; exact when the length is rational."""
    if isinstance(length, float):
        if length <= 0:
            raise ValueError("segment length must be positive")
        return PointSet.from_floats([[0.0], [length]])
    val = parse_exact(length)
    if val <= 0:
        raise ValueError("segment length must be positive")
    return PointSet.exact([[0], [val]])


def brick(lengths) -> PointSet:
    """Vertex set of a box: the Cartesian product of one segment per length."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("brick needs at least one side length")
    return cartesian_product(*(segment(l) for l in lengths))


def _set_label(elems) -> str:
    return ",".join(str(e) for e in sorted(elems))


def kahn_kalai_blocks(n: int) -> list:
    """Canonical halves X (each containing element 1) of all partitions of [2n]."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    return [frozenset((1,) + rest)
            for rest in combinations(range(2, 2 * n + 1), n - 1)]


def kahn_kalai_set(n: int) -> PointSet:
    """0/1 point set indexed by partitions of [2n] into equal halves.

    Coordinates are indexed by the 2-subsets T of [2n] in lexicographic
    order; the coordinate is 1 exactly when T meets both halves. Each point
    has n^2 ones, and two points at block intersection t are at squared
    distance 2n^2 - 2(t^2 + (n-t)^2), so the diameter is n.
    """
    blocks = kahn_kalai_blocks(n)
    ground = list(range(1, 2 * n + 1))
    pair_index = list(combinations(ground, 2))
    full = frozenset(ground)
    pts = []
    labels = []
    for X in blocks:
        Y = full - X
        coords = tuple(1 if ((a in X) != (b in X)) else 0 for a, b in pair_index)
        pts.append(coords)
        labels.append(f"{_set_label(X)}|{_set_label(Y)}")
    return PointSet(tuple(pts), EXACT, tuple(labels))


def kneser_subsets(n: int, k: int, r: int) -> list:
    """All n-subsets of [d] with d = r*n + (k-1)*(r-1), in lexicographic order."""
    if n < 1 or k < 2 or r < 2:
        raise ValueError("need n >= 1, k >= 2, r >= 2")
    d = r * n + (k - 1) * (r - 1)
    return [frozenset(c) for c in combinations(range(1, d + 1), n)]


def kneser_points(n: int, k: int, r: int) -> PointSet:
    """Characteristic vectors of all n-subsets of [d], d = r*n + (k-1)*(r-1).

    Squared distances equal symmetric-difference sizes, so the diameter is
    sqrt(2n), attained exactly by disjoint subset pairs.
    """
    subsets = kneser_subsets(n, k, r)
    d = r * n + (k - 1) * (r - 1)
    pts = tuple(tuple(1 if i in s else 0 for i in range(1, d + 1)) for s in subsets)
    labels = tuple(_set_label(s) for s in subsets)
    return PointSet(pts, EXACT, labels)


def cube_corner_set() -> PointSet:
    """The origin together with the six unit coordinate vectors of R^6.

    A cube vertex and its neighbors: distances are 1 to the origin and
    sqrt(2) between arms, so the diameter is sqrt(2).
    """
    pts = [(0,) * 6] + [tuple(int(j == i) for j in range(6)) for i in range(6)]
    labels = ["origin"] + [f"e{i + 1}" for i in range(6)]
    return PointSet(tuple(pts), EXACT, tuple(labels))


def regular_polygon(n: int, circumradius: float = 1.0) -> PointSet:
    """Vertices of a regular n-gon on a circle of the given radius."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    if not circumradius > 0:
        raise ValueError("circumradius must be positive")
    pts = [(circumradius * cos(2 * pi * i / n), circumradius * sin(2 * pi * i / n))
           for i in range(n)]
    return PointSet.from_floats(pts)


def heptagon_config(circumradius: float = 1.0):
    """Regular heptagon R and the obtuse triangle P on vertices 1, 2, 4.

    Both share the same diameter (the 3-step chord).
    """
    host = regular_polygon(7, circumradius)
    pattern = host.select((0, 1, 3))
    return host, pattern


def isosceles_apex_triangle(apex_degrees: float) -> PointSet:
    """Isosceles triangle with given apex angle and unit base, apex first.

    The base is the longest side whenever the apex angle exceeds 60 degrees.
    """
    if not 0 < apex_degrees < 180:
        raise ValueError("apex angle must lie strictly between 0 and 180")
    half = radians(apex_degrees) / 2.0
    leg = 0.5 / sin(half)
    p2 = (leg * cos(half), leg * sin(half))
    p3 = (leg * cos(half), -leg * sin(half))
    return PointSet.from_floats([(0.0, 0.0), p2, p3])


class NonRealizableError(ValueError):
    """Side matrix admits no Euclidean realization."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"side matrix is not realizable: Gram eigenvalue {eigenvalue:.6g} < 0")


@dataclass(frozen=True)
class SimplexSpec:
    """Abstract simplex given by its squared side lengths (exact Fractions)."""

    side_sq: tuple

    def __post_init__(self):
        n = len(self.side_sq)
        if n < 1:
            raise ValueError("simplex needs at least one vertex")
        for i in range(n):
            if len(self.side_sq[i]) != n:
                raise ValueError("side matrix must be square")
            if self.side_sq[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(n):
                if self.side_sq[i][j] != self.side_sq[j][i]:
                    raise ValueError("side matrix must be symmetric")
                if i != j and self.side_sq[i][j] <= 0:
                    raise ValueError("off-diagonal sides must be positive")

    @property
    def n(self) -> int:
        return len(self.side_sq)


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"length {x} is not finite")
        return Fraction(x)
    return Fraction(parse_exact(x))


def simplex_from_sides(sides) -> SimplexSpec:
    """SimplexSpec from the flat upper triangle of the side lengths.

    A sequence of length n(n-1)/2 is read row by row: (s01, s02, ...,
    s0(n-1), s12, ...). Each side is an int, a Fraction, a 'num/den' string
    or a finite float, and must be positive; squared sides are stored
    exactly.
    """
    sides = list(sides)
    if not sides:
        raise ValueError("empty side list")
    m = len(sides)
    n = int((1 + sqrt(1 + 8 * m)) / 2)
    if n * (n - 1) // 2 != m:
        raise ValueError(f"{m} side lengths do not fill an upper triangle")
    sq = [[Fraction(0)] * n for _ in range(n)]
    for k, ((i, j), s) in enumerate(zip(combinations(range(n), 2), sides)):
        length = _as_fraction(s)
        # squaring would turn a negative length into a valid side
        if length <= 0:
            raise ValueError(f"side {k} {(i, j)} has length {s}, not positive")
        sq[i][j] = sq[j][i] = length ** 2
    return SimplexSpec(tuple(tuple(row) for row in sq))


def _float_sq(x_sq, side) -> float:
    """float(x_sq) of an exact squared side, or a ValueError naming `side`
    when the square is too large for a float."""
    try:
        return float(x_sq)
    except OverflowError:
        raise ValueError(
            f"side {side}: its square is too large for a float") from None


PSD_TOLERANCE = 1e-8


def _gram_coords(G: np.ndarray) -> list:
    """One coordinate array per Gram matrix in the stack G (k x m x m), of
    m + 1 rows: vertex 0 at the origin and vertex i + 1 at row i of a factor
    of the matrix, one column per eigenvalue above PSD_TOLERANCE times the
    largest, in decreasing order (ties in eigh's order). One eigh call
    factors the whole stack and gives each matrix the bits of a call of its
    own. An empty matrix gives the one point [0.0]."""
    if not G.shape[-1]:
        return [np.zeros((1, 1)) for _ in G]
    coords = []
    for w, V in zip(*np.linalg.eigh(G)):
        scale = w.max()
        if not scale > 0:
            raise ValueError(f"largest Gram eigenvalue is {scale:.6g}, not "
                             "positive: the squared sides vanish in floating point")
        if w.min() < -PSD_TOLERANCE * scale:
            raise NonRealizableError(float(w.min()))
        keep = np.argsort(-w, kind="stable")
        keep = keep[w[keep] > PSD_TOLERANCE * scale]
        x = V[:, keep] * np.sqrt(w[keep])
        coords.append(np.vstack((np.zeros(len(keep)), x)))
    return coords


def _from_gram(G: np.ndarray) -> list:
    """One point set per Gram matrix in the stack G (see `_gram_coords`)."""
    return [PointSet.from_floats(c.tolist()) for c in _gram_coords(G)]


def realize(spec: SimplexSpec) -> PointSet:
    """Embed a simplex spec in Euclidean space via its Gram factorization.

    Vertex 0 sits at the origin, and G_ij = (d_0i^2 + d_0j^2 - d_ij^2) / 2
    is the Gram matrix of the others; the dimension is its rank. Raises
    NonRealizableError when an eigenvalue is below -PSD_TOLERANCE times the
    largest one, and ValueError when no eigenvalue is positive.
    """
    M = np.array([[_float_sq(x, (i, j)) for j, x in enumerate(row)]
                  for i, row in enumerate(spec.side_sq)])
    G = (M[0, 1:, None] + M[0, None, 1:] - M[1:, 1:]) / 2.0
    return _from_gram(G[None])[0]


def regular_simplex(m: int, side=1.0) -> PointSet:
    """m vertices pairwise at distance `side`, embedded in dimension m-1.

    The Gram matrix is s^2/2 (I + J), with s^2 rounded once from the exact
    square of `side`."""
    if m < 1:
        raise ValueError("need at least one vertex")
    exact = _as_fraction(side)
    if exact <= 0:
        raise ValueError("side must be positive")
    return _from_gram(_regular_grams(m, [_float_sq(exact ** 2, side)]))[0]


def _regular_grams(m: int, s_sq) -> np.ndarray:
    """The Gram matrices s^2/2 (I + J) of regular m-simplices, one per s^2."""
    return np.multiply.outer(np.divide(s_sq, 2.0), np.eye(m - 1) + 1.0)
