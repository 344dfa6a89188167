"""Certified optima of the extension problems behind diameter degeneracy.

A set is t-degenerate at an anchor point when every regular t-simplex of
side diam(P) through that point strictly increases the diameter of the
union. Placements are parametrized by an orthonormal m x t frame Q (the QR
factor of a free matrix, signs fixed so diag(R) > 0), so the simplex
constraints hold to machine precision by construction.

The extension problem minimizes, over frames Q, the largest of the affine
values c_k - <G_k, Q> (_FrameMinimax), the squared distances from the
simplex to the base; the far-pair adversary is the corner-star extension
read in coordinates. One driver (_minimize) runs L-BFGS-B on a softmax of
the values, at one sharpness relative to the problem's scale, from random
starts, and one SLSQP polish of the epigraph form, minimize tau subject to
tau >= c_k - <G_k, Q>, takes the best start to the exact active set. Its
KKT multipliers, normalised to weights lambda on the simplex, certify the
optimum by weak duality:

    min_Q max_k (c_k - <G_k, Q>) >= lambda.c - ||sum_k lambda_k G_k||_*,

because the nuclear norm is the largest value of <M, Q> over orthonormal
frames Q. Any lambda gives a valid bound, in every ambient dimension. For
the extension at ambient dimension rank(W) + t or more (the default
dim + t is enough) the reachable cross matrices X W^T form a convex set,
by the dilation of a contraction, so the bound is tight and the polished
placement meets it. A result is certified when the placement and the bound
agree to CERTIFY_GAP.

SUPPORTED verdicts rest on the certified lower bound; REFUTED verdicts
exhibit an explicit placement. SciPy is imported on the first optimizer call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .constructions import cube_corner_set, regular_simplex
from .geometry import PointSet, _frame, diameter, random_orthogonal

DEFAULT_RESTARTS = 50
STAR_DIM = 9  # the star in R^6 and its 3-point extensions: R^6 + 3
SUPPORT_MARGIN = 1e-4
REFUTE_TOLERANCE = 1e-6
ANGLE_DIMS = (2, 3, 4, 5)
ANGLE_TOL_DEGREES = 1e-6
_ANGLE_BATCH = 8192
# the apex audit's boundary stratum sits this far inside the unit sphere, so
# that rounding in the float re-check of |q p2|, |q p3| <= |q p1| = 1 does
# not reject the points where the 150-degree bound is tight
_BOUNDARY_RADIUS = 1.0 - 1e-12
CERTIFY_GAP = 1e-8  # relative to max(1, value)
_BETA = 16.0  # the surrogate's sharpness, in units of the problem's scale
_POLISH = {"maxiter": 200, "ftol": 1e-16}
_WITNESS_TOL = 1e-9  # relative, on the squared norms and sides of 2
_WITNESS_CHUNK = 1 << 17  # Gaussian entries drawn at once: 1 MiB


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class ExtensionProblem:
    """Placement problem: regular t-simplex through one anchor of the base."""

    base: PointSet
    anchor: int
    t: int
    ambient_dim: int
    side: float

    def __post_init__(self):
        if not 0 <= self.anchor < len(self.base):
            raise ValueError("anchor out of range")
        if self.t < 1:
            raise ValueError("need t >= 1")
        # the ambient space must hold the base and a t-dimensional simplex;
        # dim(base) + t (the default) buys the simplex full freedom but
        # smaller ambients are legitimate, just more constrained
        if self.ambient_dim < max(self.base.dim, self.t):
            raise ValueError("ambient dimension cannot hold base and simplex")
        if self.side <= 0:
            raise ValueError("side must be positive")


def extension_problem(base: PointSet, anchor: int, t: int,
                      ambient_dim: int | None = None) -> ExtensionProblem:
    """Build an ExtensionProblem of side diam(base), in dimension dim + t
    unless stated."""
    if ambient_dim is None:
        ambient_dim = base.dim + t
    return ExtensionProblem(base, anchor, t, ambient_dim, diameter(base).value)


@dataclass(frozen=True)
class ExtensionResult:
    value: float
    simplex: PointSet
    restart_values: tuple
    feasibility_error: float
    # surrogate calls plus polish constraint evaluations, and surrogate
    # calls plus polish constraint Jacobians
    evaluations: int
    gradients: int
    # the duality bound: lower <= true minimum <= value
    lower: float
    certified: bool


def _anchored_frame(t: int, side: float) -> np.ndarray:
    """Vertices 1..t of a regular t-simplex whose vertex 0 is the origin."""
    return regular_simplex(t + 1, side).as_array()[1:]


def _frame_pullback(Q: np.ndarray, R: np.ndarray,
                    Q_bar: np.ndarray) -> np.ndarray:
    """Gradient in A of a function of Q = _frame(A)[0], given its gradient
    Q_bar in Q: (Q_bar + Q copyltu(M)) R^-T with M = -Q_bar^T Q, where
    copyltu(M) mirrors M's strict lower triangle onto its upper one.

    Q_bar may be a stack (k, m, t) of gradients; so is the result.
    """
    M = -np.swapaxes(Q_bar, -1, -2) @ Q
    X = Q_bar + Q @ (np.tril(M) + np.swapaxes(np.tril(M, -1), -1, -2))
    return np.swapaxes(np.linalg.solve(R, np.swapaxes(X, -1, -2)), -1, -2)


@dataclass(frozen=True)
class _FrameMinimax:
    """Minimize, over orthonormal m x t frames Q, the largest affine value
    c_k - <G_k, Q>.

    The values are the extension's squared distances (_extension_minimax).
    objective(Q) is the union's diameter at frame Q, and report(v) maps a
    value v onto its scale, monotonely; objective(Q) is
    report(values(Q).max()) up to rounding. `scale` is the problem's unit
    of value (side^2): the softmax runs at sharpness beta / scale.
    """

    c: np.ndarray  # (k,)
    G: np.ndarray  # (k, m, t)
    scale: float
    objective: Callable
    report: Callable

    def values(self, Q: np.ndarray) -> np.ndarray:
        return self.c - self.G.reshape(len(self.c), -1) @ Q.ravel()

    def surrogate(self, A: np.ndarray, beta: float) -> tuple:
        """Softmax of the values at sharpness beta / scale, and its gradient
        in A: the softmax weights of the -G_k, pulled back through the QR
        map."""
        Q, R = _frame(A)
        sharp = beta / self.scale
        v = self.values(Q)
        top = v.max()
        e = np.exp(sharp * (v - top))
        total = e.sum()
        grad = -np.tensordot(e / total, self.G, axes=1)
        return top + np.log(total) / sharp, _frame_pullback(Q, R, grad)

    def bound(self, lam: np.ndarray) -> float:
        """The weak-duality bound lam.c - ||sum lam_k G_k||_* beneath the
        minimax, for weights lam on the simplex.

        It is lowered by (k + m t) eps times the magnitudes it sums, an
        allowance for the rounding of its own evaluation and of the
        placement's: at an optimum the two meet, and either can round past
        the other by an ulp.
        """
        nuclear = float(np.linalg.svd(np.tensordot(lam, self.G, axes=1),
                                      compute_uv=False).sum())
        slack = (len(self.c) + self.G[0].size) * np.finfo(float).eps
        return (float(lam @ self.c) - nuclear
                - slack * (float(lam @ np.abs(self.c)) + nuclear))


def _epigraph_polish(prob: _FrameMinimax, A0: np.ndarray) -> tuple:
    """Minimize the largest of prob.values(Q) over frames Q = _frame(A) by
    SLSQP.

    Works on the epigraph form: minimize tau over (A, tau) subject to
    tau - values(Q)_k >= 0 for every k. Value k has gradient -G_k in Q
    wherever Q is, so the constraint Jacobian is the G_k pulled back through
    the QR map. Starts from A0 with tau at its largest value. Returns the
    polished matrix, the constraints' KKT multipliers, and the numbers of
    constraint evaluations and of constraint Jacobians.
    """
    m, t = A0.shape
    size = m * t
    evaluations = jacobians = 0

    def constraint(x):
        nonlocal evaluations
        evaluations += 1
        return x[-1] - prob.values(_frame(x[:size].reshape(m, t))[0])

    def jacobian(x):
        nonlocal jacobians
        jacobians += 1
        Q, R = _frame(x[:size].reshape(m, t))
        J = _frame_pullback(Q, R, prob.G).reshape(-1, size)
        return np.hstack([J, np.ones((len(J), 1))])

    unit = np.zeros(size + 1)
    unit[-1] = 1.0
    x0 = np.append(A0.ravel(), prob.values(_frame(A0)[0]).max())
    res = minimize(lambda x: x[-1], x0, jac=lambda x: unit, method="SLSQP",
                   constraints=({"type": "ineq", "fun": constraint,
                                 "jac": jacobian},),
                   options=_POLISH)
    return res.x[:size].reshape(m, t), res.multipliers, evaluations, jacobians


def _dual_weights(multipliers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """KKT multipliers normalised onto the probability simplex.

    Any weights give a valid bound; when the multipliers carry no weight,
    uniform weights on the active constraints (within CERTIFY_GAP of the
    largest value) stand in.
    """
    lam = np.maximum(np.nan_to_num(multipliers), 0.0)
    if not lam.sum() > 0.0:
        top = values.max()
        lam = (values >= top - CERTIFY_GAP * max(1.0, abs(top))).astype(float)
    return lam / lam.sum()


def _certified(lower: float, upper: float) -> bool:
    """The bounds agree to CERTIFY_GAP, relative to max(1, |upper|)."""
    return upper - lower <= CERTIFY_GAP * max(1.0, abs(upper))


def _minimize(prob: _FrameMinimax, restarts: int,
              rng: np.random.Generator) -> tuple:
    """Minimize prob.objective over frames; the one optimizer driver.

    Each start draws A from rng.standard_normal(m * t) and runs L-BFGS-B on
    the softmax surrogate at _BETA. The best start by the true objective is
    polished on the epigraph form, the better of start and polish is kept,
    and the polish's multipliers weight the duality bound. When the bound
    and the objective do not meet, one more start is drawn from the same
    generator and polished, and the smaller objective and the larger bound
    are kept. Returns the best frame, its objective, the reported bound
    beneath it, every start's objective, and the numbers of evaluations
    (surrogate calls plus polish constraint evaluations) and of gradients
    (surrogate calls plus polish constraint Jacobians).
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    m, t = prob.G.shape[1:]
    calls = evaluations = jacobians = 0

    def surrogate(x):
        nonlocal calls
        calls += 1
        value, grad = prob.surrogate(x.reshape(m, t), _BETA)
        return value, grad.ravel()

    restart_values = []
    best_val, best_Q, lower = np.inf, None, -np.inf
    # a polish can stall away from the optimum (SLSQP's iteration limit, or
    # a singular LSQ subproblem): then one more start, and every value and
    # bound stays valid
    for batch in (restarts, 1):
        starts = [minimize(surrogate, rng.standard_normal(m * t), jac=True,
                           method="L-BFGS-B", options={"maxiter": 300}).x
                  .reshape(m, t) for _ in range(batch)]
        start_vals = [prob.objective(_frame(A)[0]) for A in starts]
        restart_values += start_vals
        k = int(np.argmin(start_vals))
        if not np.isfinite(start_vals[k]):
            raise RuntimeError(f"optimizer failed on all {batch} restarts: "
                               f"values={start_vals[:5]}")
        # the softmax leaves an O(scale/beta) bias; SLSQP may also stop (exit
        # mode 8) at the optimum, so the true objective picks the better point
        A, multipliers, evals, jacs = _epigraph_polish(prob, starts[k])
        evaluations, jacobians = evaluations + evals, jacobians + jacs
        Q = _frame(A)[0]
        val = prob.objective(Q)
        if val > start_vals[k]:
            Q, val = _frame(starts[k])[0], start_vals[k]
        lam = _dual_weights(multipliers, prob.values(Q))
        lower = max(lower, prob.report(prob.bound(lam)))
        if val < best_val:
            best_val, best_Q = val, Q
        if _certified(lower, best_val):
            break
    return (best_Q, best_val, lower, tuple(restart_values),
            calls + evaluations, calls + jacobians)


def _extension_minimax(prob: ExtensionProblem) -> tuple:
    """The affine form of prob, and the map from a frame Q to the simplex's
    vertices, the anchor first.

    With anchor a, free vertices p_i = a + Q F_i for the rows F_i of the
    anchored simplex, and base vectors w_j = b_j - a, the squared distance
    |p_i - b_j|^2 is c_ij - <G_ij, Q> with c_ij = |F_i|^2 + |w_j|^2 and
    G_ij = 2 w_j F_i^T. The objective is the diameter of the union, never
    below diam(base); the bound on it is the square root of the bound on
    the squared distances.
    """
    m, t = prob.ambient_dim, prob.t
    base = np.zeros((len(prob.base), m))
    base[:, :prob.base.dim] = prob.base.as_array()
    anchor = base[prob.anchor]
    W = base - anchor
    F = _anchored_frame(t, prob.side)
    floor = max(prob.side, diameter(prob.base).value)

    def simplex(Q):
        return np.vstack([anchor, anchor + F @ Q.T])

    def union_diameter(Q):
        diff = simplex(Q)[1:, None, :] - base[None, :, :]
        return max(floor, float(np.sqrt((diff * diff).sum(axis=2)).max()))

    c = ((F * F).sum(axis=1)[:, None] + (W * W).sum(axis=1)[None, :]).ravel()
    G = 2.0 * W[None, :, :, None] * F[:, None, None, :]
    return _FrameMinimax(c, G.reshape(-1, m, t), prob.side ** 2,
                         union_diameter,
                         lambda v: max(floor, sqrt(max(v, 0.0)))), simplex


def min_extension_diameter(prob: ExtensionProblem,
                           restarts: int = DEFAULT_RESTARTS,
                           seed: int = 0) -> ExtensionResult:
    """Smallest found diameter of base union an anchored regular t-simplex.

    The returned value, from the placement that _minimize finds, is an upper
    bound on the true minimum and never drops below diam(base); `lower` is
    the duality bound beneath it. The placement is feasible to machine
    precision by the frame parametrization.
    """
    problem, simplex = _extension_minimax(prob)
    Q, value, lower, values, evaluations, gradients = _minimize(
        problem, restarts, np.random.default_rng(seed))
    pts = simplex(Q)
    feas = 0.0
    for i in range(prob.t + 1):
        for j in range(i + 1, prob.t + 1):
            feas = max(feas, abs(float(np.linalg.norm(pts[i] - pts[j])) - prob.side))
    return ExtensionResult(value, PointSet.from_floats(pts), values, feas,
                           evaluations=evaluations, gradients=gradients,
                           lower=lower, certified=_certified(lower, value))


def degeneracy_evidence(P: PointSet, t: int, margin: float = SUPPORT_MARGIN,
                        restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                        ambient_dim: int | None = None) -> dict:
    """Per-anchor verdicts on t-degeneracy.

    SUPPORTED: the duality bound proves every placement exceeds
    diam(P) + margin.
    REFUTED: some placement achieves diam(P) + REFUTE_TOLERANCE (a
    counterexample).
    Anything in between is INCONCLUSIVE.
    """
    if not (isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    diam = diameter(P).value
    anchors = []
    for a in range(len(P)):
        prob = extension_problem(P, a, t, ambient_dim=ambient_dim)
        res = min_extension_diameter(prob, restarts=restarts, seed=seed + a)
        if res.value <= diam + REFUTE_TOLERANCE:
            verdict = "REFUTED"
        elif res.lower > diam + margin:
            verdict = "SUPPORTED"
        else:
            verdict = "INCONCLUSIVE"
        anchors.append({"anchor": a, "value": res.value, "verdict": verdict,
                        "lower": res.lower, "certified": res.certified})
    if any(a["verdict"] == "SUPPORTED" for a in anchors):
        overall = "degenerate-evidence"
    elif all(a["verdict"] == "REFUTED" for a in anchors):
        overall = "refuted"
    else:
        overall = "inconclusive"
    return {
        "t": t,
        "diameter": diam,
        "margin": margin,
        "tolerance": REFUTE_TOLERANCE,
        "anchors": anchors,
        "overall": overall,
    }


def _norms(x: np.ndarray) -> np.ndarray:
    """Column norms of x, adding the coordinates (rows) in sequence."""
    return np.sqrt((x * x).sum(0))


def _apex_configurations(rng: np.random.Generator, n: int, dim: int,
                         boundary: bool) -> tuple:
    """Draw n configurations normalised to q = 0, |q p1| = 1; keep those
    that satisfy the hypothesis max(|q p2|, |q p3|) <= |q p1| <= |p2 p3|.

    p1 is uniform on the unit sphere. p2 and p3 are uniform in the unit
    ball, or, for the boundary stratum, uniform on the sphere of radius
    _BOUNDARY_RADIUS, where the 150-degree bound is tight. Every sample is
    re-checked in floats with the audit's comparisons, and only the
    passing configurations come back, column-major: p1, p2 and p3 with
    `dim` rows each. Draws of (n, dim) and (n, 1) arrays are read through
    .T, and norms add coordinates in sequence, as numpy's row reductions
    do for dim <= 7, so every value is the row-major one bit for bit.
    """

    def directions():
        x = rng.standard_normal((n, dim)).T.copy()
        return x / _norms(x)

    p1, p2, p3 = directions(), directions(), directions()
    if boundary:
        p2 *= _BOUNDARY_RADIUS
        p3 *= _BOUNDARY_RADIUS
    else:
        p2 *= rng.random((n, 1)).T ** (1.0 / dim)
        p3 *= rng.random((n, 1)).T ** (1.0 / dim)
    radius = _norms(p1)
    keep = np.flatnonzero((_norms(p2) <= radius) & (_norms(p3) <= radius)
                          & (radius <= _norms(p2 - p3)))
    return p1[:, keep], p2[:, keep], p3[:, keep]


def apex_angle_audit(trials: int = 100000, seed: int = 0) -> dict:
    """Randomized audit: a bounded unit extension caps the apex angle at 150.

    The lemma: if a point q satisfies max(|p2 q|, |p3 q|) <= |p1 q| <= |p2 p3|,
    the angle of the triangle (p1, p2, p3) at p1 is at most 150 degrees,
    with equality when q is the circumcentre and |p2 p3| the circumradius.
    Hypothesis and claim are invariant under translation, rotation and
    scaling, so every configuration is drawn with q at the origin and
    |q p1| = 1 (_apex_configurations), inside the hypothesis: p1 uniform
    on the unit sphere, p2 and p3 uniform in the unit ball or, in
    alternate batches, on the sphere just inside it where the bound is
    tight. Batches cycle through ANGLE_DIMS, each dimension taking one
    batch of each stratum in turn. Samples that fail the float re-check of
    the hypothesis are dropped; `attempts` counts every configuration
    drawn; draws are read column-major in unchanged order. A violation is
    an angle above 150 + ANGLE_TOL_DEGREES.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = np.random.default_rng(seed)
    accepted = attempts = violations = 0
    max_angle = 0.0
    worst = None
    batch = 0
    while accepted < trials:
        dim = ANGLE_DIMS[(batch // 2) % len(ANGLE_DIMS)]
        p1, p2, p3 = _apex_configurations(rng, _ANGLE_BATCH, dim,
                                          boundary=batch % 2 == 1)
        batch += 1
        attempts += _ANGLE_BATCH
        p1, p2, p3 = (x[:, : trials - accepted] for x in (p1, p2, p3))
        if not p1.shape[1]:
            continue
        u = p2 - p1
        v = p3 - p1
        cos = (u * v).sum(0) / (_norms(u) * _norms(v))
        angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        accepted += len(angles)
        batch_max = int(np.argmax(angles))
        if angles[batch_max] > max_angle:
            max_angle = float(angles[batch_max])
            worst = (p1[:, batch_max].tolist(), p2[:, batch_max].tolist(),
                     p3[:, batch_max].tolist(), [0.0] * dim)
        violations += int((angles > 150.0 + ANGLE_TOL_DEGREES).sum())
    return {
        "trials": accepted,
        "attempts": attempts,
        "violations": violations,
        "max_angle": max_angle,
        "worst_instance": worst if violations else None,
        "ok": violations == 0,
    }


def _padded_star(dim: int) -> np.ndarray:
    """The canonical star tetrahedron's three nonzero vertices, padded to dim."""
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    padded = np.zeros((3, dim))
    padded[:, :3] = _anchored_frame(3, sqrt(2.0))
    return padded


def random_star_tetrahedron(rng: np.random.Generator,
                            dim: int = STAR_DIM) -> np.ndarray:
    """Random regular tetrahedron of side sqrt(2) with one vertex at 0.

    Returns the three nonzero vertices as rows, each of norm sqrt(2),
    obtained by rotating a canonical frame with a Haar orthogonal map.
    """
    return _padded_star(dim) @ random_orthogonal(dim, rng).T


def _check_star_tetrahedra(pts: np.ndarray) -> None:
    """Raise unless each (3, dim) slice of pts holds the nonzero vertices of
    a regular side-sqrt(2) tetrahedron anchored at the origin."""
    for i in range(3):
        if np.any(np.abs((pts[:, i] ** 2).sum(axis=1) - 2.0) > _WITNESS_TOL * 2.0):
            raise ValueError(f"vertex {i} does not have squared norm 2")
        for j in range(i + 1, 3):
            d = pts[:, i] - pts[:, j]
            if np.any(np.abs((d * d).sum(axis=1) - 2.0) > _WITNESS_TOL * 2.0):
                raise ValueError(f"pair {i},{j} is not at squared distance 2")


def far_pair_witness(tetra_points):
    """Locate a tetra vertex farther than sqrt(2) from some unit vector.

    Input: the three nonzero vertices of a regular side-sqrt(2) tetrahedron
    anchored at the origin, in dimension >= 6. Returns (i, j, value) with
    value the smallest of the first six coordinates; value < 1/2 always
    holds for feasible input, and is equivalent to |p_i - e_j| > sqrt(2).
    Indices are 0-based.
    """
    pts = np.asarray(tetra_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 3 or pts.shape[1] < 6:
        raise ValueError("need 3 points in dimension >= 6")
    _check_star_tetrahedra(pts[None])
    first6 = pts[:, :6]
    flat = int(np.argmin(first6))
    i, j = divmod(flat, 6)
    return i, j, float(first6[i, j])


def star_witness_values(trials: int, seed: int,
                        dim: int = STAR_DIM) -> np.ndarray:
    """far_pair_witness's value for each of `trials` random star tetrahedra.

    Draws, in chunks, exactly the tetrahedra that `trials` successive calls
    of random_star_tetrahedron(default_rng(seed), dim) draw, with the same
    values bit for bit: a chunk of Gaussian matrices, one batched signed QR
    as in random_orthogonal, and the same feasibility checks as
    far_pair_witness.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    rng, padded = np.random.default_rng(seed), _padded_star(dim)
    chunk = max(1, _WITNESS_CHUNK // (dim * dim))
    out = np.empty(trials)
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        Q = _frame(rng.standard_normal((k, dim, dim)))[0]
        pts = padded @ np.swapaxes(Q, 1, 2)  # (k, 3, dim)
        _check_star_tetrahedra(pts)
        out[start:start + k] = pts[:, :, :6].min(axis=(1, 2))
    return out


def far_pair_adversary(restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> dict:
    """Adversarial search maximizing the smallest of the first six coordinates.

    Over all regular side-sqrt(2) tetrahedra anchored at the origin, tries
    to push every coordinate x_i(j), j < 6, as high as possible: the
    corner-star extension read in coordinates, as |p_i - e_j|^2 is
    3 - 2 x_i(j). The max-min found, (3 - v^2) / 2 for the extension's
    value v, is a lower bound on the optimum and `upper_bound`, the same
    reading of the duality bound, an upper one. Both stay below 1/2, which
    is exactly why appending such a tetrahedron to the cube-corner star
    always stretches some distance past sqrt(2).
    """
    res = min_extension_diameter(extension_problem(cube_corner_set(), 0, 3),
                                 restarts, seed)

    def max_min(v):
        return (3.0 - v * v) / 2.0

    return {
        "dim": STAR_DIM,
        "restarts": restarts,
        "best_max_min": max_min(res.value),
        "restart_values": tuple(map(max_min, res.restart_values)),
        "points": res.simplex.as_array()[1:].tolist(),
        "evaluations": res.evaluations,
        "gradients": res.gradients,
        "upper_bound": max_min(res.lower),
        "certified": res.certified,
    }
