"""Numeric certification of diameter-degenerate point sets.

A set is t-degenerate at an anchor point when every regular t-simplex of
side diam(P) through that point strictly increases the diameter of the
union. The optimizer searches over placements of the t free simplex
vertices for the smallest achievable union diameter: placements are
parametrized by an orthonormal frame (the QR factor of a free matrix, signs
fixed so diag(R) > 0), so the simplex constraints hold to machine precision
by construction. The nonsmooth max objective is minimized through a softmax
surrogate with an increasing sharpness schedule, by L-BFGS-B on its
closed-form gradient (the softmax weights pulled back through the QR map),
and a Nelder-Mead polish on the true maximum gives the reported value. The
far-pair adversary shares the same multi-start routine.

SUPPORTED verdicts are evidence with a safety margin, not proofs; REFUTED
verdicts exhibit an explicit placement.
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
_BETAS = (4.0, 16.0, 64.0, 256.0)


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
    # surrogate and polish evaluations, and gradients, over all restarts
    evaluations: int = 0
    gradients: int = 0


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
    copyltu(M) mirrors M's strict lower triangle onto its upper one."""
    M = -Q_bar.T @ Q
    L = np.tril(M)
    X = Q_bar + Q @ (L + L.T - np.diag(np.diagonal(M)))
    return np.linalg.solve(R, X.T).T


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


class _ExtensionObjective:
    """Placement, true value and softmax surrogate of an ExtensionProblem."""

    def __init__(self, prob: ExtensionProblem):
        self.base = np.zeros((len(prob.base), prob.ambient_dim))
        self.base[:, :prob.base.dim] = prob.base.as_array()
        self.anchor = self.base[prob.anchor]
        self.side = prob.side
        self.frame = _anchored_frame(prob.t, prob.side)  # (t, t)
        self.floor = max(prob.side, diameter(prob.base).value)

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
        V = self.anchor + self.frame @ Q.T
        diff = V[:, None, :] - self.base[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))  # (t, n)
        scale = beta / max(self.side, 1e-12)
        top = d.max()
        e = np.exp(scale * (d - top))
        total = e.sum()
        # d/dV_i = sum_j w_ij (V_i - B_j) / d_ij with softmax weights w
        coef = np.divide(e / total, d, out=np.zeros_like(d), where=d > 0)
        G = (coef[:, :, None] * diff).sum(axis=1)  # (t, m)
        return top + np.log(total) / scale, _frame_pullback(Q, R, G.T @ self.frame)


def min_extension_diameter(prob: ExtensionProblem,
                           restarts: int = DEFAULT_RESTARTS,
                           seed: int = 0) -> ExtensionResult:
    """Smallest found diameter of base union an anchored regular t-simplex.

    Multi-start local minimization; the returned value is an upper bound on
    the true minimum and never drops below diam(base). The placement is
    feasible to machine precision by the frame parametrization.
    """
    m, t = prob.ambient_dim, prob.t
    obj = _ExtensionObjective(prob)
    finals, calls = _multistart(obj.surrogate, m, t, restarts,
                                np.random.default_rng(seed))
    best_val = np.inf
    best_x = None
    values = []
    for A in finals:
        val = obj.true_value(obj.placement(A))
        values.append(val)
        if val < best_val:
            best_val = val
            best_x = A.ravel()
    if best_x is None or not np.isfinite(best_val):
        raise RuntimeError(
            f"optimizer failed on all {restarts} restarts: values={values[:5]}")

    # the softmax stages leave an O(1/beta) bias; polish the best restart on
    # the true nonsmooth objective
    polish = minimize(lambda a: obj.true_value(obj.placement(a.reshape(m, t))),
                      best_x, method="Nelder-Mead",
                      options={"maxiter": 4000, "fatol": 1e-12, "xatol": 1e-12})
    if polish.fun <= best_val:
        best_val = float(polish.fun)
        best_x = polish.x
    best_V = obj.placement(best_x.reshape(m, t))

    feas = 0.0
    pts = np.vstack([obj.anchor, best_V])
    for i in range(t + 1):
        for j in range(i + 1, t + 1):
            feas = max(feas, abs(float(np.linalg.norm(pts[i] - pts[j])) - prob.side))
    simplex = PointSet.from_floats(pts)
    return ExtensionResult(best_val, simplex, tuple(values), feas,
                           evaluations=calls + polish.nfev, gradients=calls)


def degeneracy_evidence(P: PointSet, t: int, margin: float = SUPPORT_MARGIN,
                        restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                        tolerance: float = REFUTE_TOLERANCE,
                        ambient_dim: int | None = None) -> dict:
    """Per-anchor verdicts on t-degeneracy.

    SUPPORTED: every found placement exceeds diam(P) + margin.
    REFUTED: some placement achieves diam(P) + tolerance (a counterexample).
    Anything in between is INCONCLUSIVE.
    """
    diam = diameter(P).value
    anchors = []
    for a in range(len(P)):
        prob = extension_problem(P, a, t, ambient_dim=ambient_dim)
        res = min_extension_diameter(prob, restarts=restarts, seed=seed + a)
        if res.value <= diam + tolerance:
            verdict = "REFUTED"
        elif res.value > diam + margin:
            verdict = "SUPPORTED"
        else:
            verdict = "INCONCLUSIVE"
        anchors.append({"anchor": a, "value": res.value, "verdict": verdict})
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
        "tolerance": tolerance,
        "anchors": anchors,
        "overall": overall,
    }


def apex_angle_audit(trials: int = 100000, seed: int = 0) -> dict:
    """Randomized audit: a bounded unit extension caps the apex angle at 150.

    Samples triangles (p1, p2, p3), in each dimension of ANGLE_DIMS in turn,
    with a point q satisfying max(p2q, p3q) <= p1q <= p2p3 and checks the
    angle at p1 never exceeds 150 degrees plus ANGLE_TOL_DEGREES.
    """
    rng = np.random.default_rng(seed)
    accepted = 0
    violations = 0
    max_angle = 0.0
    worst = None
    round_robin = 0
    while accepted < trials:
        dim = ANGLE_DIMS[round_robin % len(ANGLE_DIMS)]
        round_robin += 1
        batch = 8192
        p1 = rng.standard_normal((batch, dim))
        p2 = rng.standard_normal((batch, dim))
        p3 = rng.standard_normal((batch, dim))
        base = np.linalg.norm(p2 - p3, axis=1)
        # q must reach within radius of p2 and p3, so radius >= half the
        # larger apex-to-base distance or the sample cannot satisfy the
        # hypothesis at all
        lo = np.maximum(np.linalg.norm(p2 - p1, axis=1),
                        np.linalg.norm(p3 - p1, axis=1)) / 2.0
        feasible = lo < base
        radius = lo + (base - lo) * rng.random(batch)
        dirs = rng.standard_normal((batch, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        q = p1 + radius[:, None] * dirs
        hyp = feasible \
            & (np.linalg.norm(q - p2, axis=1) <= radius) \
            & (np.linalg.norm(q - p3, axis=1) <= radius)
        idx = np.nonzero(hyp)[0]
        if idx.size == 0:
            continue
        take = idx[: trials - accepted]
        u = p2[take] - p1[take]
        v = p3[take] - p1[take]
        cos = (u * v).sum(1) / (np.linalg.norm(u, axis=1)
                                * np.linalg.norm(v, axis=1))
        angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        accepted += take.size
        batch_max = int(np.argmax(angles))
        if angles[batch_max] > max_angle:
            max_angle = float(angles[batch_max])
            gi = take[batch_max]
            worst = (p1[gi].tolist(), p2[gi].tolist(), p3[gi].tolist(),
                     q[gi].tolist())
        violations += int((angles > 150.0 + ANGLE_TOL_DEGREES).sum())
    return {
        "trials": accepted,
        "violations": violations,
        "max_angle": max_angle,
        "worst_instance": worst if violations else None,
        "ok": violations == 0,
    }


def random_star_tetrahedron(seed_or_rng, dim: int = 9) -> np.ndarray:
    """Random regular tetrahedron of side sqrt(2) with one vertex at 0.

    Returns the three nonzero vertices as rows, each of norm sqrt(2),
    obtained by rotating a canonical frame with a Haar orthogonal map.
    """
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    frame = _anchored_frame(3, sqrt(2.0))  # (3, 3)
    padded = np.zeros((3, dim))
    padded[:, :3] = frame
    Q = random_orthogonal(dim, rng)
    return padded @ Q.T


def far_pair_witness(tetra_points, tol: float = 1e-9):
    """Locate a tetra vertex farther than sqrt(2) from some unit vector.

    Input: the three nonzero vertices of a regular side-sqrt(2) tetrahedron
    anchored at the origin, in dimension >= 6. Returns (i, j, value) with
    value the smallest of the first six coordinates; value < 1/2 always
    holds for feasible input, and is equivalent to |p_i - e_j| > sqrt(2).
    Indices are 0-based.
    """
    pts = np.asarray(tetra_points, dtype=float)
    if pts.shape[0] != 3 or pts.shape[1] < 6:
        raise ValueError("need 3 points in dimension >= 6")
    for i in range(3):
        if abs(pts[i] @ pts[i] - 2.0) > tol * 2.0:
            raise ValueError(f"vertex {i} does not have squared norm 2")
        for j in range(i + 1, 3):
            d = pts[i] - pts[j]
            if abs(d @ d - 2.0) > tol * 2.0:
                raise ValueError(f"pair {i},{j} is not at squared distance 2")
    first6 = pts[:, :6]
    flat = int(np.argmin(first6))
    i, j = divmod(flat, 6)
    return i, j, float(first6[i, j])


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
    to push every coordinate x_i(j), j < 6, as high as possible. The best
    max-min found is a lower bound on the adversary's optimum; it stays
    below 1/2, which is exactly why appending such a tetrahedron to the
    cube-corner star always stretches some distance past sqrt(2).
    """
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    frame = _anchored_frame(3, sqrt(2.0))
    finals, calls = _multistart(_adversary_surrogate(frame), dim, 3,
                                restarts, np.random.default_rng(seed))
    best_val = -np.inf
    best_V = None
    values = []
    for A in finals:
        V = frame @ _frame(A)[0].T
        val = float(V[:, :6].min())
        values.append(val)
        if val > best_val:
            best_val = val
            best_V = V
    return {
        "dim": dim,
        "restarts": restarts,
        "best_max_min": best_val,
        "restart_values": tuple(values),
        "points": best_V.tolist(),
        "evaluations": calls,
        "gradients": calls,
    }
