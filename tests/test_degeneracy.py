"""Extension optimizer, degeneracy verdicts, and the corner-star witness."""

import json
import os
import subprocess
import sys
from math import cos, radians, sin, sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from diamray import (
    ExtensionProblem,
    PointSet,
    apex_angle_audit,
    circumcenter,
    cube_corner_set,
    degeneracy_evidence,
    diameter,
    extension_problem,
    far_pair_adversary,
    far_pair_witness,
    isosceles_apex_triangle,
    min_extension_diameter,
    random_star_tetrahedron,
    realize,
    regular_simplex,
    simplex_from_sides,
    sq_dist_matrix,
    star_witness_values,
)

RESTARTS = 10  # more than the checks' single start: exercises the multi-start
ROUNDING = 4e-16  # a few ulps near 1: the closed forms are floats too


def test_equilateral_extension_reaches_diameter():
    tri = regular_simplex(3, 1.0)
    res = min_extension_diameter(extension_problem(tri, 0, 1),
                                 restarts=RESTARTS, seed=0)
    # placing the new point on another vertex keeps the diameter at 1
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.feasibility_error <= 1e-8


def test_apex_150_circumcenter_is_exact_witness():
    tri = isosceles_apex_triangle(150.0)
    pts = tri.as_array()
    q = circumcenter(*tri.points)
    # circumradius = 1/(2 sin 150) = 1: q is a feasible unit extension
    assert np.linalg.norm(q - pts[0]) == pytest.approx(1.0, abs=1e-12)
    union_diam = max(1.0, *(float(np.linalg.norm(q - p)) for p in pts))
    assert union_diam <= 1.0 + 1e-6
    res = min_extension_diameter(extension_problem(tri, 0, 1),
                                 restarts=RESTARTS, seed=0)
    assert res.value <= 1.0 + 1e-6


def test_apex_160_supported():
    tri = isosceles_apex_triangle(160.0)
    res = min_extension_diameter(extension_problem(tri, 0, 1),
                                 restarts=RESTARTS, seed=0)
    assert res.value > 1.0 + 1e-4
    # closed-form optimum: the in-plane bisector direction
    leg = 1.0 / (2.0 * sin(radians(80.0)))
    best = sqrt(1.0 + leg * leg - 2.0 * leg * np.cos(radians(80.0)))
    assert res.value == pytest.approx(best, abs=1e-6)


def test_degeneracy_evidence_verdicts():
    tri160 = isosceles_apex_triangle(160.0)
    rep = degeneracy_evidence(tri160, 1, restarts=RESTARTS, seed=1)
    assert rep["anchors"][0]["verdict"] == "SUPPORTED"
    assert rep["overall"] == "degenerate-evidence"

    acute = realize(simplex_from_sides([0.9, 0.95, 1.0]))
    rep = degeneracy_evidence(acute, 1, restarts=RESTARTS, seed=1)
    assert all(a["verdict"] == "REFUTED" for a in rep["anchors"])
    assert rep["overall"] == "refuted"


def test_degeneracy_evidence_inconclusive_between_refute_and_margin():
    # the apex anchor's certified minimum, about 1.04, clears the refutation
    # tolerance but not diam + 0.5; the base anchors reach the diameter
    tri160 = isosceles_apex_triangle(160.0)
    rep = degeneracy_evidence(tri160, 1, margin=0.5)
    apex = rep["anchors"][0]
    assert apex["verdict"] == "INCONCLUSIVE" and apex["certified"]
    assert 1.0 + rep["tolerance"] < apex["value"] < 1.0 + 0.5
    assert apex["lower"] <= 1.0 + 0.5
    assert [a["verdict"] for a in rep["anchors"][1:]] == ["REFUTED", "REFUTED"]
    assert rep["margin"] == 0.5 and rep["overall"] == "inconclusive"


def test_degeneracy_evidence_rejects_bad_margin():
    tri160 = isosceles_apex_triangle(160.0)
    for margin in (float("nan"), float("inf"), -1.0, -1e-12):
        with pytest.raises(ValueError, match="margin"):
            degeneracy_evidence(tri160, 1, margin=margin, restarts=1)


def test_extension_value_never_below_diameter():
    rng = np.random.default_rng(8)
    for _ in range(4):
        P = PointSet.from_floats(rng.standard_normal((5, 3)))
        res = min_extension_diameter(extension_problem(P, 0, 2),
                                     restarts=3, seed=2)
        assert res.value >= diameter(P).value - 1e-12
        assert res.feasibility_error <= 1e-8


def test_corner_star_extension_exceeds_sqrt2():
    star = cube_corner_set()
    prob = extension_problem(star, 0, 3)
    assert prob.ambient_dim == 9
    res = min_extension_diameter(prob, restarts=RESTARTS, seed=3)
    assert res.value > sqrt(2.0) + 1e-3


def test_ambient_dimension_monotonicity():
    star = cube_corner_set()
    values = {}
    for dim in (7, 8, 9, 12):
        res = min_extension_diameter(
            extension_problem(star, 0, 3, ambient_dim=dim),
            restarts=6, seed=4)
        values[dim] = res.value
    dims = sorted(values)
    for lo, hi in zip(dims, dims[1:]):
        assert values[hi] <= values[lo] + 1e-4


def test_extension_problem_validation():
    star = cube_corner_set()
    with pytest.raises(ValueError):
        extension_problem(star, 99, 1)
    with pytest.raises(ValueError):
        extension_problem(star, 0, 0)
    with pytest.raises(ValueError):
        extension_problem(star, 0, 3, ambient_dim=5)


def test_extension_problem_built_directly_matches_the_builder():
    P = isosceles_apex_triangle(160.0)
    direct, built = ExtensionProblem(P, 1, 2), extension_problem(P, 1, 2)
    assert direct.side == built.side == diameter(P).value
    assert direct.ambient_dim == built.ambient_dim == P.dim + 2
    assert np.array_equal(direct.c, built.c)
    assert np.array_equal(direct.G, built.G)


def test_a_solve_leaves_its_problem_unchanged():
    prob = extension_problem(isosceles_apex_triangle(160.0), 0, 1)
    before = {name: getattr(prob, name).copy()
              for name in ("c", "G", "F", "points")}
    first = min_extension_diameter(prob, seed=0)
    assert min_extension_diameter(prob, seed=0) == first
    for name, array in before.items():
        assert np.array_equal(getattr(prob, name), array), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adversary_reports_the_extension_it_reads(seed):
    from diamray.verify import check_corner_star_extension

    rep = far_pair_adversary(seed=seed)
    res = min_extension_diameter(extension_problem(cube_corner_set(), 0, 3),
                                 seed=seed)
    v, lower = rep["extension_value"], rep["extension_lower"]
    assert (v, lower) == (res.value, res.lower)
    assert rep["best_max_min"] == (3 - v * v) / 2
    assert rep["upper_bound"] == (3 - lower * lower) / 2
    _, details = check_corner_star_extension({"witness_trials": 10}, seed)
    assert details["extension_value"] == v
    assert details["extension_lower"] == lower


def test_far_pair_witness_off_axis_trivial():
    # tetra supported entirely outside the first six coordinates: every
    # first-six coordinate is 0 < 1/2 and the witness value is exactly 0
    from diamray.degeneracy import _anchored_frame

    frame = _anchored_frame(3, sqrt(2.0))
    pts = np.zeros((3, 9))
    pts[:, 6:9] = frame
    i, j, val = far_pair_witness(pts)
    assert val == 0.0 and (i, j) == (0, 0)


def test_far_pair_witness_random_trials():
    rng = np.random.default_rng(15)
    for _ in range(200):
        tet = random_star_tetrahedron(rng)
        i, j, val = far_pair_witness(tet)
        assert val < 0.5
        # equivalence: distance to unit vector e_j exceeds sqrt(2)
        e = np.zeros(9)
        e[j] = 1.0
        assert np.linalg.norm(tet[i] - e) > sqrt(2.0)


def test_far_pair_witness_validates_input():
    bad = np.zeros((3, 9))
    with pytest.raises(ValueError):
        far_pair_witness(bad)
    with pytest.raises(ValueError):
        far_pair_witness(np.zeros((2, 9)))


def test_random_star_tetrahedron_feasible():
    rng = np.random.default_rng(21)
    tet = random_star_tetrahedron(rng, dim=10)
    for i in range(3):
        assert tet[i] @ tet[i] == pytest.approx(2.0, abs=1e-12)
        for j in range(i + 1, 3):
            d = tet[i] - tet[j]
            assert d @ d == pytest.approx(2.0, abs=1e-12)


def test_far_pair_adversary_stays_below_half():
    rep = far_pair_adversary(restarts=6, seed=5)
    assert rep["best_max_min"] < 0.5 - 1e-3
    # the adversary reads the star's extension: max dist^2 = 3 - 2 min coord
    star = cube_corner_set()
    res = min_extension_diameter(extension_problem(star, 0, 3),
                                 restarts=6, seed=5)
    assert rep["best_max_min"] == (3.0 - res.value * res.value) / 2.0
    # the reported points are a star tetrahedron holding that max-min, and
    # no start beats the polished best
    assert far_pair_witness(rep["points"])[2] == pytest.approx(
        rep["best_max_min"], abs=1e-12)
    assert len(rep["restart_values"]) == 6
    assert max(rep["restart_values"]) <= rep["best_max_min"]


def test_uncertified_polish_retries_one_start():
    # one start stalls at 4.58830 with lower 4.58825; the second start of
    # the same generator reaches the certified optimum
    base = PointSet.from_floats([
        [-1.0201209931751032, 1.786603974884251],
        [-1.7301472799223618, -1.1936536894354106],
        [-1.991540478741448, -2.2936400041227096]])
    prob = extension_problem(base, 1, 1)
    res = min_extension_diameter(prob, restarts=1, seed=149)
    assert res.certified and len(res.restart_values) == 2
    assert res.lower <= res.value
    assert res.value == pytest.approx(4.588245124363123, abs=1e-9)
    two = min_extension_diameter(prob, restarts=2, seed=149)
    assert two.certified and two.restart_values == res.restart_values
    assert res.value == pytest.approx(two.value, abs=1e-12)


def test_extension_deterministic_given_seed():
    tri = isosceles_apex_triangle(155.0)
    prob = extension_problem(tri, 0, 1)
    a = min_extension_diameter(prob, restarts=5, seed=77)
    b = min_extension_diameter(prob, restarts=5, seed=77)
    assert a.value == b.value and a.restart_values == b.restart_values
    assert a.simplex.points == b.simplex.points


def test_apex_angle_audit_small():
    rep = apex_angle_audit(trials=20000, seed=6)
    assert rep["ok"] and rep["violations"] == 0
    assert rep["max_angle"] <= 150.0 + 1e-6
    # the boundary stratum samples where the lemma is tight
    assert rep["max_angle"] > 149.0


def test_apex_angle_audit_draws_at_most_twice_its_trials():
    rep = apex_angle_audit(trials=100000, seed=1111)
    assert rep["trials"] == 100000 and rep["ok"]
    assert rep["attempts"] <= 2 * rep["trials"]


@pytest.mark.parametrize("trials, seed, attempts, max_angle", [
    (100000, 10010, 155648, 149.99994566702503),
    (777, 3, 8192, 144.3952894906373),
])
def test_apex_angle_audit_reports_are_pinned(trials, seed, attempts, max_angle):
    # values of the row-major sampler; the column-major one reads the same
    # draws and adds in the same order, so every bit must agree
    rep = apex_angle_audit(trials, seed)
    assert (rep["trials"], rep["attempts"]) == (trials, attempts)
    assert rep["max_angle"] == max_angle and rep["violations"] == 0


def test_apex_angle_audit_refuses_negative_trials():
    # it used to report ok with 0 trials; its sibling audits raise
    with pytest.raises(ValueError, match="trials must be >= 0"):
        apex_angle_audit(trials=-5)


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_apex_configurations_satisfy_hypothesis(dim, boundary):
    from diamray.degeneracy import _apex_configurations

    # the sampler is column-major: one row per coordinate
    p1, p2, p3 = (p.T for p in _apex_configurations(
        np.random.default_rng(dim), 4096, dim, boundary))
    assert len(p1) > 1000 and p1.shape == p2.shape == p3.shape == (len(p1), dim)
    # q is the origin
    r = np.linalg.norm(p1, axis=1)
    assert np.all(np.linalg.norm(p2, axis=1) <= r)
    assert np.all(np.linalg.norm(p3, axis=1) <= r)
    assert np.all(r <= np.linalg.norm(p2 - p3, axis=1))
    assert np.abs(r - 1.0).max() <= 1e-15
    if boundary:  # just inside the sphere, where the lemma is tight
        for p in (p2, p3):
            assert np.abs(np.linalg.norm(p, axis=1) - (1.0 - 1e-12)).max() <= 1e-14


@pytest.mark.parametrize("boundary", [False, True])
def test_apex_configurations_are_c_ordered(boundary):
    from diamray.degeneracy import _apex_configurations

    # the audit's row reductions read the kept draws along contiguous rows
    for p in _apex_configurations(np.random.default_rng(0), 4096, 3, boundary):
        assert p.shape[0] == 3 and p.shape[1] > 100 and p.flags.c_contiguous


def test_apex_angle_boundary_witness():
    # apex exactly 150 degrees with q at the circumcenter: hypothesis tight
    tri = isosceles_apex_triangle(150.0)
    pts = tri.as_array()
    q = circumcenter(*tri.points)
    p1q = float(np.linalg.norm(q - pts[0]))
    assert max(np.linalg.norm(q - pts[1]), np.linalg.norm(q - pts[2])) \
        <= p1q + 1e-12
    assert p1q <= float(np.linalg.norm(pts[1] - pts[2])) + 1e-12
    D = sq_dist_matrix(tri)  # law of cosines at the apex p0
    cos_apex = (D[0, 1] + D[0, 2] - D[1, 2]) / (2 * sqrt(D[0, 1] * D[0, 2]))
    assert cos_apex == pytest.approx(cos(radians(150.0)), abs=1e-12)


def _central_difference(f, A, h=1e-6):
    grad = np.zeros_like(A)
    for idx in np.ndindex(A.shape):
        step = np.zeros_like(A)
        step[idx] = h
        grad[idx] = (f(A + step) - f(A - step)) / (2.0 * h)
    return grad


def _two_problems():
    """The affine forms of the corner-star and apex-160 extensions."""
    return [extension_problem(cube_corner_set(), 0, 3),
            extension_problem(isosceles_apex_triangle(160.0), 0, 1)]


@pytest.mark.parametrize("multipliers", [np.zeros(4), np.full(4, np.nan),
                                         -np.ones(4)])
def test_dual_weights_without_multipliers_are_uniform_on_the_top(multipliers):
    from diamray.degeneracy import CERTIFY_GAP, _dual_weights

    # within CERTIFY_GAP of the top value counts as active, 10 gaps does not
    values = np.array([2.0, 2.0 - CERTIFY_GAP, 0.5, 2.0 - 10 * CERTIFY_GAP])
    weights = _dual_weights(multipliers, values)
    assert np.array_equal(weights, [0.5, 0.5, 0.0, 0.0])


@pytest.mark.parametrize("beta", [4.0, 256.0])
def test_surrogate_gradients_match_central_differences(beta):
    rng = np.random.default_rng(12)
    for prob in _two_problems():
        for _ in range(3):
            A = rng.standard_normal(prob.G.shape[1:])
            _, grad = prob.surrogate(A, beta)
            want = _central_difference(lambda a: prob.surrogate(a, beta)[0], A)
            assert np.abs(grad - want).max() <= 1e-7


def test_objective_is_the_reported_largest_value():
    from diamray.degeneracy import _frame

    rng = np.random.default_rng(15)
    problems = _two_problems() + list(_random_extension_problems(0))
    for prob in problems:
        for _ in range(3):
            Q = _frame(rng.standard_normal(prob.G.shape[1:]))[0]
            want = prob.report(prob.values(Q).max())
            assert abs(prob.objective(Q) - want) <= 1e-14 * want


def test_corner_star_degenerate_at_the_default_start():
    rep = degeneracy_evidence(cube_corner_set(), 3)
    assert rep["overall"] == "degenerate-evidence"
    assert all(a["certified"] for a in rep["anchors"])


def test_polish_jacobians_match_central_differences():
    from diamray.degeneracy import _frame, _frame_pullback

    rng = np.random.default_rng(14)
    for prob in _two_problems():
        for _ in range(3):
            A = rng.standard_normal(prob.G.shape[1:])
            Q, R = _frame(A)
            # value k has gradient -G_k in Q
            got = _frame_pullback(Q, R, -prob.G)
            for k in range(len(got)):
                want = _central_difference(
                    lambda a: prob.values(_frame(a)[0])[k], A)
                assert np.abs(got[k] - want).max() <= 1e-7


def test_qr_frame_is_the_gram_schmidt_frame():
    from diamray.degeneracy import _frame

    rng = np.random.default_rng(13)
    for shape in ((9, 3), (12, 3), (3, 1)):
        A = rng.standard_normal(shape)
        Q, R = _frame(A)
        assert np.all(np.diagonal(R) > 0)
        assert np.abs(Q @ R - A).max() <= 1e-12
        # classical Gram-Schmidt, column by column
        G = np.zeros(shape)
        for i in range(shape[1]):
            v = A[:, i] - G[:, :i] @ (G[:, :i].T @ A[:, i])
            G[:, i] = v / np.linalg.norm(v)
        assert np.abs(Q - G).max() <= 1e-12


def test_closed_form_corner_star_optima():
    # the adversary's optimum is sqrt(2)/3; squared extension = 3 - 2 * it
    rep = far_pair_adversary(restarts=RESTARTS, seed=5)
    exact = sqrt(2.0) / 3.0
    assert rep["best_max_min"] == pytest.approx(exact, abs=1e-9)
    assert rep["best_max_min"] - ROUNDING <= exact <= rep["upper_bound"] + ROUNDING
    assert rep["certified"]
    res = min_extension_diameter(extension_problem(cube_corner_set(), 0, 3),
                                 restarts=RESTARTS, seed=3)
    exact = sqrt(3.0 - 2.0 * sqrt(2.0) / 3.0)
    assert res.value == pytest.approx(exact, abs=1e-9)
    assert res.lower - ROUNDING <= exact <= res.value + ROUNDING
    assert res.certified


@pytest.mark.parametrize("theta", [100, 110, 120, 130, 140, 149, 151, 160,
                                   170, 179])
def test_apex_sweep_matches_closed_form(theta):
    # leg l = 1/(2 sin(theta/2)); the best placement is the in-plane
    # bisector, value^2 = l^2 + 1 - 2 l cos(theta/2), which exceeds 1
    # exactly when sin(theta) < 1/2, i.e. theta > 150
    tri = isosceles_apex_triangle(float(theta))
    leg = 1.0 / (2.0 * sin(radians(theta / 2.0)))
    exact = max(1.0, sqrt(leg * leg + 1.0 - 2.0 * leg * cos(radians(theta / 2.0))))
    res = min_extension_diameter(extension_problem(tri, 0, 1), restarts=1, seed=0)
    assert res.value == pytest.approx(exact, abs=1e-9)
    assert res.certified
    rep = degeneracy_evidence(tri, 1, restarts=1, seed=0)
    assert (rep["anchors"][0]["verdict"] == "SUPPORTED") == (theta > 150)
    assert rep["anchors"][0]["certified"]


@pytest.mark.parametrize("theta", [160.0, 170.0, 179.0])
def test_apex_bound_never_exceeds_placement(theta):
    # near the optimum the float evaluation of the bound can round past the
    # placement's value; its rounding allowance must keep it beneath
    prob = extension_problem(isosceles_apex_triangle(theta), 0, 1)
    for seed in range(60):
        res = min_extension_diameter(prob, restarts=1, seed=seed)
        assert res.certified and res.lower <= res.value, seed


def _random_extension_problems(generator):
    """200 seeded problems: 3-6 points uniform in [-3, 3]^2 or [-3, 3]^3,
    t in {1, 2}, a random anchor."""
    rng = np.random.default_rng(generator)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 4))
        t = int(rng.integers(1, 3))
        pts = rng.uniform(-3.0, 3.0, (n, dim))
        yield extension_problem(PointSet.from_floats(pts), int(rng.integers(n)), t)


_SLOW = pytest.mark.skipif(not os.environ.get("DIAMRAY_SLOW"),
                           reason="set DIAMRAY_SLOW=1 to run")


@pytest.mark.parametrize("generator", [0, pytest.param(1, marks=_SLOW),
                                       pytest.param(2, marks=_SLOW)])
def test_random_extension_sweep_certified(generator):
    # one start each: the polish, and at most one more start, must certify
    for k, prob in enumerate(_random_extension_problems(generator)):
        res = min_extension_diameter(prob, restarts=1, seed=k)
        assert res.certified and res.lower <= res.value, (generator, k)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_duality_bound_never_exceeds_placement(data):
    n = data.draw(st.integers(3, 6))
    dim = data.draw(st.integers(2, 3))
    t = data.draw(st.integers(1, 2))
    coords = data.draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        min_size=n * dim, max_size=n * dim))
    pts = np.array(coords).reshape(n, dim)
    gaps = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    assume(gaps[np.triu_indices(n, 1)].min() > 1e-3)
    P = PointSet.from_floats(pts)
    # the default ambient dim + t, where the bound is tight, and the
    # smallest one allowed, where it need not be
    ambient = data.draw(st.sampled_from([dim + t, max(dim, t)]))
    res = min_extension_diameter(extension_problem(P, 0, t, ambient_dim=ambient),
                                 restarts=1, seed=data.draw(st.integers(0, 99)))
    assert res.lower <= res.value + 1e-12
    assert res.feasibility_error <= 1e-12


@pytest.mark.parametrize("dim", [9, 10])
def test_batched_witness_matches_sequential_loop(dim, monkeypatch):
    from diamray import degeneracy

    rng = np.random.default_rng(9000 + dim)
    want = [far_pair_witness(random_star_tetrahedron(rng, dim=dim))[2]
            for _ in range(300)]
    assert np.array_equal(star_witness_values(300, 9000 + dim, dim=dim), want)
    # chunks of 7 draws, the last one short
    monkeypatch.setattr(degeneracy, "_WITNESS_CHUNK", 7 * dim * dim)
    assert np.array_equal(star_witness_values(300, 9000 + dim, dim=dim), want)
    with pytest.raises(ValueError):
        star_witness_values(1, 0, dim=5)


def test_feasibility_error_at_machine_precision():
    star = cube_corner_set()
    for dim in (7, 8, 9, 12):
        res = min_extension_diameter(
            extension_problem(star, 0, 3, ambient_dim=dim), restarts=2, seed=4)
        assert res.feasibility_error <= 1e-12


def test_apex_160_invariant_under_rigid_motion():
    tri = isosceles_apex_triangle(160.0)
    ref = min_extension_diameter(extension_problem(tri, 0, 1),
                                 restarts=RESTARTS, seed=0).value
    angle = radians(37.0)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    moved = PointSet.from_floats(tri.as_array() @ rot.T + np.array([3.5, -1.25]))
    res = min_extension_diameter(extension_problem(moved, 0, 1),
                                 restarts=RESTARTS, seed=0)
    assert res.value == pytest.approx(ref, abs=1e-6)


def test_optimizer_counts(monkeypatch):
    from diamray import degeneracy

    runs = []

    def recorded(*args, **kwargs):
        res = minimize(*args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(degeneracy, "minimize", recorded)
    prob = extension_problem(isosceles_apex_triangle(160.0), 0, 1)
    res = min_extension_diameter(prob, restarts=3, seed=0)
    rep = far_pair_adversary(restarts=3, seed=0)
    # each: 3 restarts x 1 L-BFGS-B stage, then one SLSQP polish
    assert ["multipliers" in r for r in runs] == ([False] * 3 + [True]) * 2
    counts = ((res.evaluations, res.gradients, runs[:4]),
              (rep["evaluations"], rep["gradients"], runs[4:]))
    for evaluations, gradients, part in counts:
        # each surrogate call is one value and one gradient, and each polish
        # Jacobian is one gradient; SLSQP evaluates the constraints at every
        # iterate it scores, plus once to size its problem
        assert gradients == sum(r.njev for r in part) > 3 + 1
        nfev = sum(r.nfev for r in part)
        assert nfev <= evaluations <= nfev + 1
        assert evaluations >= gradients
    # the polish's line search adds value-only evaluations on the apex
    assert res.evaluations > res.gradients


def test_zero_restarts_rejected():
    with pytest.raises(ValueError, match="restarts"):
        far_pair_adversary(restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        min_extension_diameter(extension_problem(cube_corner_set(), 0, 3),
                               restarts=0)


_FRESH_IMPORT = """
import json, sys
import diamray, diamray.cli
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from diamray import extension_problem, isosceles_apex_triangle
from diamray import min_extension_diameter
res = min_extension_diameter(
    extension_problem(isosceles_apex_triangle(160.0), 0, 1),
    restarts=2, seed=0)
print(json.dumps({"before": before,
                  "after": "scipy.optimize" in sys.modules,
                  "result": [res.value, res.lower, res.certified]}))
"""


def test_fresh_import_loads_scipy_only_for_the_optimizer():
    import diamray

    # this process holds SciPy already, so the import is watched in a new one
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(diamray.__file__)))
    out = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    assert doc["before"] == [] and doc["after"] is True
    res = min_extension_diameter(
        extension_problem(isosceles_apex_triangle(160.0), 0, 1),
        restarts=2, seed=0)
    assert doc["result"] == [res.value, res.lower, res.certified]
