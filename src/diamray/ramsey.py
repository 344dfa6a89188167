"""Congruent-copy enumeration, the arrow relation, and embedding witnesses.

R arrows P with r colors when every r-coloring of R leaves some congruent
copy of P monochromatic; deciding that reduces to non-colorability of the
copy hypergraph. The embedding witnesses certify the constructive half of
the diameter-preserving host constructions: a pattern embeds into a product
of regular simplices whose diameter equals the pattern's. One builder,
`_product_witness`, makes every such witness from the pattern's exact
squared sides: a core simplex and one simplex per vertex pair, less those
of side zero, so a triangle's product is at most two segments and an
equilateral core. Certificates are kept in exact rational arithmetic on
squared lengths; realizations are float and checked against a relative
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, isfinite, prod, sqrt

import numpy as np

from .coloring import Coloring, colorable
from .constructions import (
    SimplexSpec,
    _from_gram,
    _regular_grams,
    realize,
    regular_simplex,
)
from .geometry import (
    PointSet,
    find_congruence,
    sq_dist,
    _distance_preserving_maps,
    _same_distance,
    _sq_dists,
)
from .hypergraph import Hypergraph, _canonical

BOUNDARY_TOL = 1e-12  # the mod-8 audit skips 2|x|^2 this close to an integer
HOST_LIMIT = 64  # embedding witnesses materialize product hosts up to this size
ARROW_EXACT_LIMIT = 12  # regular_simplex_arrow decides hosts up to this size
_GADGET_BATCH = 16384  # midpoints drawn per batch of the mod-8 audit
# the mod-8 audit gives up once this many draws keep under this share of
# placements that fit: K just above the enclosing radius fits almost none
_GADGET_MIN_DRAWS = 1 << 20
_GADGET_MIN_RATE = 2.0 ** -12


@dataclass(frozen=True)
class CopyFamily:
    """All subsets of the host congruent to the pattern, as sorted tuples.

    automorphisms is |Aut(P)|, the order of the pattern's distance-class
    symmetry group; reduced is False when the float guard of the copy search
    fell back to enumerating every map.
    """

    host: PointSet
    pattern: PointSet
    copies: tuple
    automorphisms: int
    reduced: bool

    @property
    def as_hypergraph(self) -> Hypergraph:
        return Hypergraph.make(len(self.host), self.copies)

    def __len__(self) -> int:
        return len(self.copies)


def congruent_copies(R: PointSet, P: PointSet) -> CopyFamily:
    """Enumerate every |P|-subset of R congruent to P, each exactly once.

    Each copy is the image of |Aut(P)| distance-preserving maps; the search
    keeps one of them, the least along the pattern's stabiliser chain (see
    `geometry._distance_preserving_maps`). In the float lane it enumerates
    every map instead when a host distance matches only part of a class of
    pattern distances (`reduced` is False). The copies come out sorted
    either way.
    """
    if len(P) > len(R):
        raise ValueError("pattern larger than host")
    maps, automorphisms, reduced = _distance_preserving_maps(P, R, symmetric=True)
    copies = _canonical(maps)
    return CopyFamily(R, P, copies, automorphisms, reduced)


@dataclass(frozen=True)
class ArrowResult:
    arrows: bool
    num_copies: int
    evading: Coloring | None
    pattern_automorphisms: int


def arrows(R: PointSet, P: PointSet, r: int) -> ArrowResult:
    """Decide whether every r-coloring of R has a monochromatic copy of P.

    True exactly when the copy hypergraph admits no proper r-coloring; when
    it does, the witness coloring evades every copy.
    """
    if r < 1:
        raise ValueError("need at least one color")
    family = congruent_copies(R, P)
    evading = colorable(family.as_hypergraph, r)
    return ArrowResult(evading is None, len(family), evading,
                       family.automorphisms)


def regular_simplex_arrow(d: int, r: int):
    """Host simplex forcing a monochromatic regular d-simplex with r colors.

    The host is the regular simplex with r*d+1 unit-side vertices:
    with r colors some class has at least d+1 vertices and spans a congruent
    copy of the pattern. For hosts up to ARROW_EXACT_LIMIT vertices the
    arrow relation is also decided exactly.
    """
    if d < 1 or r < 2:
        raise ValueError("need pattern dimension >= 1 and r >= 2")
    host = regular_simplex(r * d + 1)
    pattern = regular_simplex(d + 1)
    class_size = ceil((r * d + 1) / r)
    report = {
        "host_vertices": r * d + 1,
        "pattern_vertices": d + 1,
        "colors": r,
        "pigeonhole_class_size": class_size,
        "pigeonhole_ok": class_size >= d + 1,
        "exact_checked": False,
        "exact_arrows": None,
    }
    if r * d + 1 <= ARROW_EXACT_LIMIT:
        res = arrows(host, pattern, r)
        report["exact_checked"] = True
        report["exact_arrows"] = res.arrows
    return host, report


@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    expected_sq: Fraction
    measured_sq: float
    ok: bool


@dataclass(frozen=True)
class EmbeddingWitness:
    """A diameter-preserving embedding of a pattern into a simplex product.

    `factors` are the nondegenerate product factors; `diam_sq` is the exact
    squared diameter of the product, equal to the pattern's. The embedded
    points live in the product coordinates; `host` is materialized only when
    the product is small.
    """

    pattern: PointSet
    factors: tuple
    embedded: PointSet
    diam_sq: Fraction
    pair_checks: tuple
    congruent: bool
    host: PointSet | None = None
    embedded_host_indices: tuple | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.congruent and all(c.ok for c in self.pair_checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "ok": self.ok,
            "diam_sq": str(self.diam_sq),
            "congruent": self.congruent,
            "factor_sizes": [len(f) for f in self.factors],
            "embedded_dim": self.embedded.dim,
            "pair_checks": [
                {"i": c.i, "j": c.j, "expected_sq": str(c.expected_sq),
                 "measured_sq": c.measured_sq, "ok": c.ok}
                for c in self.pair_checks
            ],
            "details": {k: (str(v) if isinstance(v, Fraction) else v)
                        for k, v in self.details.items()},
        }


class EmbeddingConditionError(ValueError):
    """Side-length sum falls short of the embedding condition."""

    def __init__(self, deficit: Fraction):
        self.deficit = deficit
        super().__init__(
            "sum of squared sides misses the required bound by "
            f"{float(-deficit):.6g}")


def _product_witness(side_sq, details) -> EmbeddingWitness:
    """The witness of a pattern placed on a product of regular simplices
    whose squared diameter is the pattern's, D.

    `side_sq` is the pattern's exact squared side matrix s. The core is one
    regular n-simplex of squared side a^2 = sum s_ij - (C(n,2) - 1) D, and
    each pair (i, j) adds one regular (n-1)-simplex of squared side
    x_ij^2 = D - s_ij, so the product's squared diameter is a^2 + sum
    x_ij^2 = D. Pattern vertex k sits on core vertex k and, in the (i, j)
    factor, on vertex 0 when k is i or j and on vertices 1, 2, ...
    otherwise; pair (k, l) is then at squared distance D - x_kl^2 = s_kl.
    A negative a^2 raises EmbeddingConditionError(a^2). Zero-side factors
    are dropped and named in `dropped_factors`; a segment is the two-vertex
    factor. Every pair is checked against `side_sq`, `measured_diam_sq_err`
    is |sum diam(f)^2 - D| / D, and the host is materialized while it has
    at most HOST_LIMIT points in one product, with the pattern's indices
    in `cartesian_product`'s order (mixed radix, the last factor fastest).
    """
    n = len(side_sq)
    pairs = list(combinations(range(n), 2))
    D = max(side_sq[i][j] for i, j in pairs)
    a_sq = sum(side_sq[i][j] for i, j in pairs) - (len(pairs) - 1) * D
    if a_sq < 0:
        raise EmbeddingConditionError(a_sq)
    x_sq = {(i, j): D - side_sq[i][j] for i, j in pairs}
    assert a_sq + sum(x_sq.values()) == D  # exact on squared lengths
    pattern = realize(SimplexSpec(side_sq))

    def simplices(m, squares):
        # side * side rounds the side's exact square, as regular_simplex does
        sides = [sqrt(float(x)) for x in squares]
        return _from_gram(_regular_grams(m, [s * s for s in sides]))

    kept = [p for p, x in x_sq.items() if x > 0]
    dropped = ([] if a_sq > 0 else ["core"]) + [
        f"pair{p}" for p, x in x_sq.items() if x == 0]
    stacks = [simplices(n, [a_sq] if a_sq > 0 else []),
              simplices(n - 1, [x_sq[p] for p in kept])]
    factors = stacks[0] + stacks[1]
    columns = [range(n)] * len(stacks[0])
    for i, j in kept:
        others = iter(range(1, n - 1))
        columns.append([0 if k in (i, j) else next(others) for k in range(n)])
    corners = tuple(zip(*columns))
    embedded = PointSet.from_floats(
        [sum((f.points[c] for f, c in zip(factors, col)), ()) for col in corners])
    # each factor's diameter as `diameter` measures it, one stack per size
    diams = [sqrt(float(d)) for stack in stacks if stack for d in
             _sq_dists(np.array([f.points for f in stack])).max(axis=(1, 2))]
    measured_diam_sq = sum(d ** 2 for d in diams)
    host = idx = None
    shape = [len(f) for f in factors]
    if prod(shape) <= HOST_LIMIT:
        host = PointSet.from_floats(
            [sum(p, ()) for p in product(*(f.points for f in factors))])
        idx = tuple(np.ravel_multi_index(columns, shape).tolist())
    checks = []
    for i, j in pairs:
        measured = float(sq_dist(embedded.points[i], embedded.points[j], False))
        checks.append(PairCheck(i, j, side_sq[i][j], measured, _same_distance(
            measured, float(side_sq[i][j]), embedded.tolerance)))
    return EmbeddingWitness(
        pattern=pattern, factors=tuple(factors), embedded=embedded,
        diam_sq=D, pair_checks=tuple(checks),
        congruent=find_congruence(embedded, pattern) is not None,
        host=host, embedded_host_indices=idx, details={
            **details, "dropped_factors": dropped,
            "measured_diam_sq_err": abs(measured_diam_sq - float(D)) / float(D)})


def right_triangle_embedding(l1, l2) -> EmbeddingWitness:
    """Embed the right triangle with the given legs into a two-segment brick.

    The triangle sits on brick vertices (0, l1), (0, 0) and (l2, 0), and
    the brick's squared diameter l1^2 + l2^2 is the hypotenuse's; the core
    factor drops. A zero leg degenerates the triangle to a segment, the
    two-vertex case. The details are stated for 2 colors, for which a
    segment factor needs 3 host vertices.
    """
    leg1, leg2 = Fraction(l1), Fraction(l2)
    if leg1 < 0 or leg2 < 0 or (leg1 == 0 and leg2 == 0):
        raise ValueError("legs must be nonnegative and not both zero")
    l1_sq, l2_sq = sorted((leg1 * leg1, leg2 * leg2), reverse=True)
    details = {"colors": 2, "segment_host_vertices": 3}
    if l2_sq == 0:
        return _product_witness(((0, l1_sq), (l1_sq, 0)),
                                {"degenerate": "segment", **details})
    diam_sq = l1_sq + l2_sq
    return _product_witness(
        ((0, l1_sq, diam_sq), (l1_sq, 0, l2_sq), (diam_sq, l2_sq, 0)),
        {"l1_sq": l1_sq, "l2_sq": l2_sq, **details})


def acute_triangle_embedding(a, b, c) -> EmbeddingWitness:
    """Embed an acute (or right) triangle into a diameter-preserving product.

    With sides a <= b <= c the product is segment(sqrt(c^2-a^2)) x
    segment(sqrt(c^2-b^2)) x equilateral(sqrt(a^2+b^2-c^2)), of squared
    diameter c^2, less its zero-side factors. Obtuse inputs are rejected;
    use the degeneracy module for those.
    """
    sa, sb, sc = sorted((Fraction(a), Fraction(b), Fraction(c)))
    if sa <= 0 or sa + sb <= sc:
        raise ValueError("not a valid triangle")
    a_sq, b_sq, c_sq = sa * sa, sb * sb, sc * sc
    x_sq = a_sq + b_sq - c_sq
    if x_sq < 0:
        raise ValueError(
            "obtuse triangle: no diameter-preserving product embedding here; "
            "see the degeneracy analysis instead")
    return _product_witness(
        ((0, c_sq, b_sq), (c_sq, 0, a_sq), (b_sq, a_sq, 0)),
        {"a_sq": a_sq, "b_sq": b_sq, "c_sq": c_sq, "l1_sq": c_sq - a_sq,
         "l2_sq": c_sq - b_sq, "x_sq": x_sq, "colors": 2})


def near_regular_simplex_embedding(spec: SimplexSpec,
                                   normalize: bool = True) -> EmbeddingWitness:
    """Embed a near-regular simplex into a product of regular simplices.

    After scaling the diameter to 1, the squared sides must sum to at least
    n(n-1)/2 - 1; otherwise EmbeddingConditionError reports the deficit,
    which is the core's squared side a^2 (see `_product_witness`).
    """
    n = spec.n
    if n < 2:
        raise ValueError("need at least two vertices")
    pairs = list(combinations(range(n), 2))
    side_sq = spec.side_sq
    m = max(side_sq[i][j] for i, j in pairs)
    if normalize:
        side_sq = tuple(tuple(x / m for x in row) for row in side_sq)
    elif m != 1:
        raise ValueError("diameter must be 1 when normalize is off")
    total = sum(side_sq[i][j] for i, j in pairs)
    slack = total - (len(pairs) - 1)
    return _product_witness(side_sq, {
        "n": n, "a_sq": slack, "sum_side_sq": total, "condition_slack": slack})


def _gadget_placements(rng, batch: int, dim: int, h: float, K: float) -> tuple:
    """The placements inside the K-ball among `batch` midpoints m drawn
    uniform in the ball of radius sqrt(K^2 - 1), column-major: the kept
    midpoints as `dim` rows, and the squared norms of m - e1, m + h e2 and
    m + e1 as 3 rows. Sums over coordinates add them in the order numpy's
    row reductions of a (batch, dim) draw do, so for dim <= 7 every value
    is the row-major one bit for bit: |x|^2 in sequence, |m|^2 as einsum
    pairs them (even coordinates, then odd)."""
    x = rng.standard_normal((batch, dim)).T.copy()
    m = x / np.sqrt((x * x).sum(0)) * (sqrt(K * K - 1.0)
                                       * rng.random(batch) ** (1.0 / dim))
    mm = m * m
    mm = mm[0::2].sum(0) + mm[1::2].sum(0)
    sq = (mm + 2.0 * np.stack((-m[0], h * m[1], m[0]))
          + np.array([[1.0], [h * h], [1.0]]))
    keep = np.flatnonzero((sq <= K * K).all(0))
    return m[:, keep], sq[:, keep]


def obtuse_gadget_audit(K: float = 2.0, trials: int = 100000, seed: int = 0,
                        dim: int = 3, legs: float | None = None) -> dict:
    """Audit the residue coloring against one thin isosceles triangle.

    The triangle has base 2 and, by default, apex height sqrt(xi) over the
    base midpoint where xi = 1/(17 K^2) -- legs sqrt(1 + xi). No placement
    in the radius-K ball can be monochromatic under the floor(2|x|^2) mod 8
    coloring: three equal residues force 8 K sqrt(xi) >= 2, which the
    choice of xi rules out.

    Placements are drawn in the triangle's own frame (_gadget_placements).
    Colors depend only on |x| and the volume of feasible midpoints is the
    same for every rotation, so the squared norms have the law of a random
    rotation and translation without drawing the rotation. By the
    parallelogram law |m -+ e1| <= K implies |m|^2 <= K^2 - 1, so that
    ball holds every feasible midpoint. `attempts` counts the draws, which
    are read column-major in unchanged order (see _gadget_placements).

    Pass `legs` to audit a different isosceles triangle with base 2. The
    bound only protects apex heights below 1/(4K); legs of 1 + xi, say, put
    the apex at sqrt(2 xi + xi^2) > 1/(4K) and monochromatic placements do
    exist (the audit finds and reports them).

    Placements with a vertex too close to a floor boundary (within
    BOUNDARY_TOL) are excluded from the monochromatic count and tallied.
    K must exceed the triangle's smallest enclosing radius, 1 for apex
    heights h <= 1 and (1 + h^2) / (2h) above, or no placement fits; just
    above it almost none does, and the audit raises once
    _GADGET_MIN_DRAWS draws keep a share below _GADGET_MIN_RATE.
    """
    if not isfinite(K * K) or K <= 1:
        raise ValueError(f"need K > 1 with K*K finite, got K = {K}")
    if dim < 2:
        raise ValueError("need dim >= 2 to place a triangle")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    xi = 1.0 / (17.0 * K * K)
    leg = sqrt(1.0 + xi) if legs is None else float(legs)
    if not 1.0 < leg <= 2.0:
        raise ValueError("legs must lie in (1, 2] so the base is the diameter")
    h = sqrt(leg * leg - 1.0)
    radius = 1.0 if h <= 1.0 else (1.0 + h * h) / (2.0 * h)
    if K <= radius:
        raise ValueError(f"K = {K} is not above the triangle's enclosing "
                         f"radius {radius:.6g}: no placement fits")
    rng = np.random.default_rng(seed)
    offsets = np.zeros((3, dim))  # a = m - e1, b = m + h e2, c = m + e1
    offsets[[0, 1, 2], [0, 1, 0]] = -1.0, h, 1.0

    accepted = attempts = flagged = mono = 0
    failures = []
    while accepted < trials:
        if (attempts >= _GADGET_MIN_DRAWS
                and accepted < _GADGET_MIN_RATE * attempts):
            raise ValueError(f"K = {K} fits {accepted} of {attempts} draws, "
                             f"a rate of {accepted / attempts:.3g} below "
                             f"{_GADGET_MIN_RATE:.3g}: too close to the "
                             f"enclosing radius {radius:.6g}")
        m, sq = (x[:, : trials - accepted] for x in
                 _gadget_placements(rng, _GADGET_BATCH, dim, h, K))
        attempts += _GADGET_BATCH
        accepted += m.shape[1]
        two_sq = 2.0 * sq
        near = (np.abs(two_sq - np.round(two_sq)) < BOUNDARY_TOL).any(0)
        flagged += int(near.sum())
        cols = np.floor(two_sq).astype(np.int64) % 8
        bad = ~near & (cols == cols[0]).all(0)
        mono += int(bad.sum())
        failures += [dict(zip("abc", (m[:, i] + offsets).tolist()),
                          color=int(cols[0, i])) for i in np.nonzero(bad)[0][:3]]
    return {
        "K": K,
        "xi": xi,
        "legs": leg,
        "apex_height": h,
        "dim": dim,
        "seed": seed,
        "trials": accepted,
        "attempts": attempts,
        "boundary_flagged": flagged,
        "monochromatic": mono,
        "failures": failures[:5],
        "ok": mono == 0,
    }
