"""Certified optima of the extension problems behind diameter degeneracy.

A set is t-degenerate at an anchor point when every regular t-simplex of
side diam(P) through that point strictly increases the diameter of the
union. Placements of the t free simplex vertices are parametrized by an
orthonormal frame (the QR factor of a free matrix, signs fixed so
diag(R) > 0), so the simplex constraints hold to machine precision by
construction. A softmax surrogate, minimized by L-BFGS-B on its closed-form
gradient (the softmax weights pulled back through the QR map), supplies a
start. One SLSQP polish of the epigraph form, minimize tau subject to
tau >= |p_i - b_j|^2, then lands on the exact active set. The far-pair
adversary shares both stages.

The polish's KKT multipliers, normalised to weights lambda on the simplex,
certify the optimum by weak duality. With anchor a, frame rows F (so the
free vectors x_i = p_i - a have Gram matrix S = F F^T) and base vectors
w_j = b_j - a as the rows of W,

    min value^2 >= L(lambda) = sum lambda_ij (S_ii + |w_j|^2) - 2 ||F^T Lambda W||_*,

because the nuclear norm is the largest value of <Q, W^T Lambda^T F> over
orthonormal frames Q. Any lambda gives a valid lower bound, in every
ambient dimension. At ambient dimension rank(W) + t or more (the default
dim + t is enough) the reachable cross matrices X W^T form a convex set,
by the dilation of a contraction, so the bound is tight and the polished
placement meets it. A result is certified when the placement and the bound
agree to CERTIFY_GAP.

SUPPORTED verdicts rest on the certified lower bound; REFUTED verdicts
exhibit an explicit placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.optimize import minimize

from .constructions import regular_simplex
from .geometry import PointSet, diameter, random_orthogonal

DEFAULT_RESTARTS = 50
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
_BETAS = (4.0, 16.0, 64.0, 256.0)
_POLISH = {"maxiter": 200, "ftol": 1e-16}
_WITNESS_TOL = 1e-9  # relative, on the squared norms and sides of 2
_WITNESS_CHUNK = 1 << 17  # Gaussian entries drawn at once: 1 MiB


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
                      ambient_dim: int | None = None,
                      side: float | None = None) -> ExtensionProblem:
    """Build an ExtensionProblem with spec defaults (side = diam, dim+t)."""
    if side is None:
        side = diameter(base).value
    if ambient_dim is None:
        ambient_dim = base.dim + t
    return ExtensionProblem(base, anchor, t, ambient_dim, float(side))


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


def _frame(A: np.ndarray) -> tuple:
    """Q, R of A = QR with diag(R) > 0.

    The columns of Q are the Gram-Schmidt frame of A's columns; fixing the
    signs of diag(R) makes A -> Q continuous along optimizer trajectories.
    """
    Q, R = np.linalg.qr(A)
    signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


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


def _multistart(value_and_grad, m: int, t: int, restarts: int,
                rng: np.random.Generator) -> tuple:
    """Minimize a softmax surrogate over m x t free matrices from random starts.

    value_and_grad(A, beta) returns the surrogate at sharpness beta and its
    gradient in A. Each restart draws A from rng.standard_normal(m * t) and
    runs L-BFGS-B through the _BETAS schedule. Returns the final matrix of
    every restart, in order, and the number of surrogate calls (each one
    value and one gradient).
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    calls = 0

    def flat(a, beta):
        nonlocal calls
        calls += 1
        value, grad = value_and_grad(a.reshape(m, t), beta)
        return value, grad.ravel()

    finals = []
    for _ in range(restarts):
        x = rng.standard_normal(m * t)
        for beta in _BETAS:
            x = minimize(flat, x, args=(beta,), jac=True, method="L-BFGS-B",
                         options={"maxiter": 300}).x
        finals.append(x.reshape(m, t))
    return finals, calls


def _epigraph_polish(A0: np.ndarray, values, q_grads) -> tuple:
    """Minimize the largest of values(Q) over frames Q = _frame(A) by SLSQP.

    Works on the epigraph form: minimize tau over (A, tau) subject to
    tau - values(Q)_k >= 0 for every k. q_grads(Q) stacks the gradient in Q
    of each value, (k, m, t); the constraint Jacobian pulls them back through
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
        return x[-1] - values(_frame(x[:size].reshape(m, t))[0])

    def jacobian(x):
        nonlocal jacobians
        jacobians += 1
        Q, R = _frame(x[:size].reshape(m, t))
        G = _frame_pullback(Q, R, q_grads(Q)).reshape(-1, size)
        return np.hstack([-G, np.ones((len(G), 1))])

    unit = np.zeros(size + 1)
    unit[-1] = 1.0
    x0 = np.append(A0.ravel(), values(_frame(A0)[0]).max())
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


class _ExtensionObjective:
    """Placement, true value and softmax surrogate of an ExtensionProblem."""

    def __init__(self, prob: ExtensionProblem):
        self.base = np.zeros((len(prob.base), prob.ambient_dim))
        self.base[:, :prob.base.dim] = prob.base.as_array()
        self.anchor = self.base[prob.anchor]
        self.side = prob.side
        self.frame = _anchored_frame(prob.t, prob.side)  # (t, t)
        self.floor = max(prob.side, diameter(prob.base).value)

    def _gaps(self, Q: np.ndarray) -> np.ndarray:
        """p_i - b_j for the placement of frame Q, shape (t, n, m)."""
        V = self.anchor + self.frame @ Q.T
        return V[:, None, :] - self.base[None, :, :]

    def sq_distances(self, Q: np.ndarray) -> np.ndarray:
        """|p_i - b_j|^2, flattened in (i, j) order."""
        diff = self._gaps(Q)
        return (diff * diff).sum(axis=2).ravel()

    def sq_distance_grads(self, Q: np.ndarray) -> np.ndarray:
        """Gradients in Q of sq_distances: 2 (p_i - b_j) F_i^T, (t*n, m, t)."""
        diff = self._gaps(Q)
        G = 2.0 * diff[:, :, :, None] * self.frame[:, None, None, :]
        return G.reshape(-1, *Q.shape)

    def lower_bound(self, lam: np.ndarray) -> float:
        """The duality bound max(floor, sqrt(L(lam))) for weights lam over
        the (i, j) pairs, flattened as in sq_distances."""
        lam = lam.reshape(len(self.frame), len(self.base))
        W = self.base - self.anchor
        S = (self.frame * self.frame).sum(axis=1)
        L = float((lam * (S[:, None] + (W * W).sum(axis=1)[None, :])).sum())
        L -= 2.0 * float(np.linalg.svd(self.frame.T @ lam @ W,
                                       compute_uv=False).sum())
        return max(self.floor, sqrt(max(L, 0.0)))

    def placement(self, A: np.ndarray) -> np.ndarray:
        """Free simplex vertices (t, m) for the frame of A."""
        return self.anchor + self.frame @ _frame(A)[0].T

    def true_value(self, V: np.ndarray) -> float:
        """Diameter of the base union the anchored simplex with vertices V."""
        diff = V[:, None, :] - self.base[None, :, :]
        return max(self.floor, float(np.sqrt((diff * diff).sum(axis=2)).max()))

    def surrogate(self, A: np.ndarray, beta: float) -> tuple:
        """Softmax of the simplex-to-base distances and its gradient in A."""
        Q, R = _frame(A)
        diff = self._gaps(Q)
        d = np.sqrt((diff * diff).sum(axis=2))  # (t, n)
        scale = beta / max(self.side, 1e-12)
        top = d.max()
        e = np.exp(scale * (d - top))
        total = e.sum()
        # d/dV_i = sum_j w_ij (V_i - B_j) / d_ij with softmax weights w
        coef = np.divide(e / total, d, out=np.zeros_like(d), where=d > 0)
        G = (coef[:, :, None] * diff).sum(axis=1)  # (t, m)
        return top + np.log(total) / scale, _frame_pullback(Q, R, G.T @ self.frame)


def _polished(obj: _ExtensionObjective, A0: np.ndarray, start_val: float) -> tuple:
    """Polish start A0 on the epigraph form: the better of start and polish
    by the true objective, its value, the duality bound, and the polish's
    constraint evaluations and Jacobians."""
    # the softmax stages leave an O(1/beta) bias; SLSQP may also stop (exit
    # mode 8) at the optimum, so the true objective picks the better point
    A, multipliers, evals, jacs = _epigraph_polish(
        A0, obj.sq_distances, obj.sq_distance_grads)
    val = obj.true_value(obj.placement(A))
    if val > start_val:
        A, val = A0, start_val
    lower = obj.lower_bound(_dual_weights(
        multipliers, obj.sq_distances(_frame(A)[0])))
    return A, val, lower, evals, jacs


def min_extension_diameter(prob: ExtensionProblem,
                           restarts: int = DEFAULT_RESTARTS,
                           seed: int = 0) -> ExtensionResult:
    """Smallest found diameter of base union an anchored regular t-simplex.

    The best of the multi-start restarts is polished on the epigraph form;
    the returned value is an upper bound on the true minimum and never drops
    below diam(base), and `lower` is the duality bound beneath it. When the
    two do not meet, one more start is drawn from the same generator and
    polished, and the smaller value and the larger bound are kept. The
    placement is feasible to machine precision by the frame parametrization.
    """
    m, t = prob.ambient_dim, prob.t
    obj = _ExtensionObjective(prob)
    rng = np.random.default_rng(seed)
    finals, calls = _multistart(obj.surrogate, m, t, restarts, rng)
    best_val = np.inf
    best_A = None
    values = []
    for A in finals:
        val = obj.true_value(obj.placement(A))
        values.append(val)
        if val < best_val:
            best_val = val
            best_A = A
    if best_A is None or not np.isfinite(best_val):
        raise RuntimeError(
            f"optimizer failed on all {restarts} restarts: values={values[:5]}")

    best_A, best_val, lower, evals, jacs = _polished(obj, best_A, best_val)
    if not _certified(lower, best_val):
        # a polish can stall away from the optimum (SLSQP's iteration limit,
        # or a singular LSQ subproblem); every value and bound stays valid
        (A,), more = _multistart(obj.surrogate, m, t, 1, rng)
        val = obj.true_value(obj.placement(A))
        values.append(val)
        A, val, low, more_evals, more_jacs = _polished(obj, A, val)
        calls, evals, jacs = calls + more, evals + more_evals, jacs + more_jacs
        if val < best_val:
            best_val, best_A = val, A
        lower = max(lower, low)
    best_V = obj.placement(best_A)

    feas = 0.0
    pts = np.vstack([obj.anchor, best_V])
    for i in range(t + 1):
        for j in range(i + 1, t + 1):
            feas = max(feas, abs(float(np.linalg.norm(pts[i] - pts[j])) - prob.side))
    simplex = PointSet.from_floats(pts)
    return ExtensionResult(best_val, simplex, tuple(values), feas,
                           evaluations=calls + evals, gradients=calls + jacs,
                           lower=lower, certified=_certified(lower, best_val))


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


def _apex_configurations(rng: np.random.Generator, n: int, dim: int,
                         boundary: bool) -> tuple:
    """Draw n configurations normalised to q = 0, |q p1| = 1; keep those
    that satisfy the hypothesis max(|q p2|, |q p3|) <= |q p1| <= |p2 p3|.

    p1 is uniform on the unit sphere. p2 and p3 are uniform in the unit
    ball, or, for the boundary stratum, uniform on the sphere of radius
    _BOUNDARY_RADIUS, where the 150-degree bound is tight. Every sample is
    re-checked in floats with the audit's comparisons, and only the
    passing rows of p1, p2 and p3 come back.
    """

    def directions():
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    p1, p2, p3 = directions(), directions(), directions()
    if boundary:
        p2 *= _BOUNDARY_RADIUS
        p3 *= _BOUNDARY_RADIUS
    else:
        p2 *= rng.random((n, 1)) ** (1.0 / dim)
        p3 *= rng.random((n, 1)) ** (1.0 / dim)
    radius = np.linalg.norm(p1, axis=1)
    keep = ((np.linalg.norm(p2, axis=1) <= radius)
            & (np.linalg.norm(p3, axis=1) <= radius)
            & (radius <= np.linalg.norm(p2 - p3, axis=1)))
    return p1[keep], p2[keep], p3[keep]


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
    drawn. A violation is an angle above 150 + ANGLE_TOL_DEGREES.

    This law replaced one that drew Gaussian triangles and a random q and
    accepted about 4% of its draws; the verdict and fields are the same,
    but `max_angle` now lands within a fraction of a degree of 150.
    """
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
        p1, p2, p3 = (x[: trials - accepted] for x in (p1, p2, p3))
        if not len(p1):
            continue
        u = p2 - p1
        v = p3 - p1
        cos = (u * v).sum(1) / (np.linalg.norm(u, axis=1)
                                * np.linalg.norm(v, axis=1))
        angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        accepted += len(angles)
        batch_max = int(np.argmax(angles))
        if angles[batch_max] > max_angle:
            max_angle = float(angles[batch_max])
            worst = (p1[batch_max].tolist(), p2[batch_max].tolist(),
                     p3[batch_max].tolist(), [0.0] * dim)
        violations += int((angles > 150.0 + ANGLE_TOL_DEGREES).sum())
    return {
        "trials": accepted,
        "attempts": attempts,
        "violations": violations,
        "max_angle": max_angle,
        "worst_instance": worst if violations else None,
        "ok": violations == 0,
    }


def _star_frame(seed_or_rng, dim: int) -> tuple:
    """The generator, and the canonical star tetrahedron padded to dim."""
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    padded = np.zeros((3, dim))
    padded[:, :3] = _anchored_frame(3, sqrt(2.0))
    return rng, padded


def random_star_tetrahedron(seed_or_rng, dim: int = 9) -> np.ndarray:
    """Random regular tetrahedron of side sqrt(2) with one vertex at 0.

    Returns the three nonzero vertices as rows, each of norm sqrt(2),
    obtained by rotating a canonical frame with a Haar orthogonal map.
    """
    rng, padded = _star_frame(seed_or_rng, dim)
    return padded @ random_orthogonal(dim, rng).T


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


def star_witness_values(trials: int, seed_or_rng, dim: int = 9) -> np.ndarray:
    """far_pair_witness's value for each of `trials` random star tetrahedra.

    Draws, in chunks, exactly the tetrahedra that `trials` successive calls
    of random_star_tetrahedron(rng, dim) draw, with the same values bit for
    bit: a chunk of Gaussian matrices, one batched QR with the sign fix of
    random_orthogonal, and the same feasibility checks as far_pair_witness.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    rng, padded = _star_frame(seed_or_rng, dim)
    chunk = max(1, _WITNESS_CHUNK // (dim * dim))
    out = np.empty(trials)
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        Q, R = np.linalg.qr(rng.standard_normal((k, dim, dim)))
        Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        pts = padded @ np.swapaxes(Q, 1, 2)  # (k, 3, dim)
        _check_star_tetrahedra(pts)
        out[start:start + k] = pts[:, :, :6].min(axis=(1, 2))
    return out


def _adversary_surrogate(frame: np.ndarray):
    """Negated softmin of the first six coordinates of the tetrahedron
    frame @ Q^T, and its gradient in A, where Q = _frame(A)[0]."""

    def surrogate(A: np.ndarray, beta: float) -> tuple:
        Q, R = _frame(A)
        V = frame @ Q.T
        v = V[:, :6]
        low = v.min()
        e = np.exp(-beta * (v - low))
        total = e.sum()
        # the softmin's gradient in v is softmax(-beta v)
        G = np.zeros_like(V)
        G[:, :6] = -e / total
        return -(low - np.log(total) / beta), _frame_pullback(Q, R, G.T @ frame)

    return surrogate


def far_pair_adversary(restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                       dim: int = 9) -> dict:
    """Adversarial search maximizing the smallest of the first six coordinates.

    Over all regular side-sqrt(2) tetrahedra anchored at the origin, tries
    to push every coordinate x_i(j), j < 6, as high as possible: the best
    restart is polished on the epigraph form, maximize tau subject to
    x_i(j) >= tau. The max-min found is a lower bound on the adversary's
    optimum and `upper_bound` an upper one: for weights lambda on the
    simplex, sum lambda_ij x_i(j) <= ||F^T Lambda||_* for every frame, with F
    the tetrahedron's frame and Lambda the weights over the first six
    coordinates. Both stay below 1/2, which is exactly why appending such a
    tetrahedron to the cube-corner star always stretches some distance past
    sqrt(2).
    """
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    frame = _anchored_frame(3, sqrt(2.0))
    finals, calls = _multistart(_adversary_surrogate(frame), dim, 3,
                                restarts, np.random.default_rng(seed))

    def max_min(A):
        return float((frame @ _frame(A)[0].T)[:, :6].min())

    values = [max_min(A) for A in finals]
    best_A = finals[int(np.argmax(values))]
    best_val = max(values)

    # the polish minimizes the largest of -x_i(j); its gradient in Q is
    # -frame[i] on row j, whatever Q is
    grads = np.zeros((3, 6, dim, 3))
    for j in range(6):
        grads[:, j, j, :] = -frame
    A, multipliers, evals, jacs = _epigraph_polish(
        best_A, lambda Q: -(frame @ Q[:6].T).ravel(),
        lambda Q: grads.reshape(18, dim, 3))
    val = max_min(A)
    if val >= best_val:
        best_val, best_A = val, A
    best_V = frame @ _frame(best_A)[0].T
    lam = _dual_weights(multipliers, -best_V[:, :6].ravel()).reshape(3, 6)
    upper = float(np.linalg.svd(frame.T @ lam, compute_uv=False).sum())
    return {
        "dim": dim,
        "restarts": restarts,
        "best_max_min": best_val,
        "restart_values": tuple(values),
        "points": best_V.tolist(),
        "evaluations": calls + evals,
        "gradients": calls + jacs,
        "upper_bound": upper,
        "certified": _certified(best_val, upper),
    }
