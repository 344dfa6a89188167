"""Acceptance suite: one test per criterion, at the stated tolerances.

The criteria are encoded once, as the checks of `diamray.verify.CHECKS`.
Each test runs its criterion's check at the full suite's sizes
(`verify.FULL`) with the criterion's own seed and asserts that it passes.
Where a criterion asks for more than its check can hold (draws of its own,
or a bound only the full sizes meet), a test-side step follows the check
under the same budget. Each test prints one pass line (visible with
`pytest -s`); budgets are wall-clock seconds.
"""

import os
import time

import numpy as np
import pytest

from diamray import (
    colorable,
    diameter_hypergraph,
    far_pair_witness,
    kahn_kalai_blocks,
    kahn_kalai_set,
    kneser_points,
    random_star_tetrahedron,
    sq_dist,
    verify,
)

# check id -> (criterion, budget in seconds, seed); the deterministic checks
# ignore the seed
CRITERIA = {
    "partition-set-structure": ("C1 partition-set structure", 5.0, 0),
    "partition-distance-formula": ("C2 squared-distance formula", 5.0, 2024),
    "kneser-small": ("C3 Kneser instance", 5.0, 0),
    "heptagon-fano": ("C4 heptagon / Fano", 5.0, 0),
    "chromatic-chain": ("C5 coloring inequalities", 30.0, 5005),
    "planar-diameter-bound": ("C6 planar diameter bound", 10.0, 606),
    "near-regular-embedding": ("C7 near-regular embedding", 20.0, 707),
    "triangle-embeddings": ("C8 triangle witnesses", 5.0, 0),
    "apex-degeneracy": ("C9 degeneracy boundary", 120.0, 9),
    "corner-star-extension": ("C10 corner-star claim", 300.0, 10),
    "apex-angle-audit": ("C11 apex angle audit", 60.0, 1111),
    "mod8-gadget": ("C12 mod-8 gadget", 60.0, 1212),
    "kneser-h4-empty": ("C13 large Kneser H4 empty", 60.0, 0),
    "solver-oracle": ("C14 solver vs brute force", 120.0, 5005),
}


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.criterion} exceeded budget: {elapsed:.1f}s >= {self.seconds}s"
            print(f"\nACCEPTANCE {self.criterion}: PASS ({elapsed:.1f}s)")
        else:
            print(f"\nACCEPTANCE {self.criterion}: FAIL ({elapsed:.1f}s)")
        return False


def _criterion_test(check_id: str, extra=None):
    """The acceptance test of one registered check.

    The test runs the check at the full sizes with its criterion's seed,
    under its criterion's budget, and asserts that it passes. `extra`, when
    given, is called with the check's details under the same budget.
    """
    def test():
        criterion, seconds, seed = CRITERIA[check_id]
        fn = next(fn for cid, fn, _ in verify.CHECKS if cid == check_id)
        with _Budget(criterion, seconds):
            ok, details = fn(verify.FULL, seed)
            assert ok, f"{check_id}: {details}"
            if extra is not None:
                extra(details)

    test.check_id = check_id
    return test


def _distinct_pairs(details):
    """Exactly 1000 distinct pairs per n; the check draws 1000 and skips i == j."""
    rng = np.random.default_rng(2024)
    for n in (2, 4, 6):
        P = kahn_kalai_set(n)
        blocks = kahn_kalai_blocks(n)
        m = len(P)
        checked = 0
        while checked < 1000:
            i, j = (int(x) for x in rng.integers(0, m, size=2))
            if i == j:
                continue
            t = len(blocks[i] & blocks[j])
            want = 2 * n * n - 2 * (t * t + (n - t) * (n - t))
            got = sq_dist(P.points[i], P.points[j], True)
            assert got == want  # integer equality, zero tolerance
            checked += 1


def _more_witnesses(details):
    """A second 1000 star tetrahedra, from a stream of their own."""
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        _, _, val = far_pair_witness(random_star_tetrahedron(rng))
        assert val < 0.5


def _enough_instances(details):
    """The fast suite's oracle has only 32 instances: a full-size bound."""
    assert details["instances"] >= 150


test_c01_partition_set_structure = _criterion_test("partition-set-structure")
test_c02_distance_formula_exact = _criterion_test("partition-distance-formula",
                                                  _distinct_pairs)
test_c03_kneser_instance = _criterion_test("kneser-small")
test_c04_heptagon_fano = _criterion_test("heptagon-fano")
test_c05_coloring_inequalities = _criterion_test("chromatic-chain")
test_c06_planar_diameter_bound = _criterion_test("planar-diameter-bound")
test_c07_near_regular_embedding = _criterion_test("near-regular-embedding")
test_c08_triangle_witnesses = _criterion_test("triangle-embeddings")
test_c09_degeneracy_boundary = _criterion_test("apex-degeneracy")
test_c10_corner_star_claim = _criterion_test("corner-star-extension",
                                             _more_witnesses)
test_c11_apex_angle_audit = _criterion_test("apex-angle-audit")
test_c12_mod8_gadget = _criterion_test("mod8-gadget")
test_c13_kneser_h4_empty = _criterion_test("kneser-h4-empty")
test_c14_solver_oracle = _criterion_test("solver-oracle", _enough_instances)


@pytest.mark.skipif(not os.environ.get("DIAMRAY_SLOW"),
                    reason="no runtime guarantee; set DIAMRAY_SLOW=1 to run")
def test_c13_kneser_chi_slow():
    P = kneser_points(3, 2, 3)
    H3 = diameter_hypergraph(P, 3)
    assert colorable(H3, 2) is None  # chi > 2
    print("\nACCEPTANCE C13-slow chi(H3) > 2: PASS")


def test_every_check_has_one_acceptance_test():
    ids = sorted(cid for cid, _, slow in verify.CHECKS if not slow)
    assert sorted(CRITERIA) == ids, "a check without a row, or a row without a check"
    tested = sorted(fn.check_id for fn in globals().values() if hasattr(fn, "check_id"))
    assert tested == ids, "a row without a test, or a check tested twice"


def test_check_times_sum_to_the_call(monkeypatch):
    # a stall between two checks (here, while a report is built) is counted
    # in the next check's runtime_ms, so the times still sum to the call
    stall = 0.03

    def quick(params, seed):
        return True, {}

    def broken(params, seed):
        raise RuntimeError("reported, not raised")

    checks = [("a", quick, False), ("b", broken, False), ("c", quick, False),
              ("d", quick, True)]
    real = verify.VerificationReport

    def stalled(check_id, *rest):
        if check_id != checks[-1][0]:
            time.sleep(stall)
        return real(check_id, *rest)

    monkeypatch.setattr(verify, "CHECKS", checks)
    monkeypatch.setattr(verify, "VerificationReport", stalled)
    t0 = time.perf_counter()
    reports = verify.verify_paper("fast")
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert [r.status for r in reports] == ["pass", "fail", "pass", "skip"]
    assert abs(wall_ms - sum(r.runtime_ms for r in reports)) < stall * 1000 / 2


def test_verify_paper_knows_two_suites():
    with pytest.raises(ValueError, match="'fast' or 'full'"):
        verify.verify_paper("medium")


def _per_draw_pairs(seed):
    """Distinct pairs over all n when each pair is its own draw of size 2."""
    rng = np.random.default_rng(seed)
    checked = 0
    for n in verify.KK_NS:
        m = len(kahn_kalai_blocks(n))
        for _ in range(verify.KK_PAIRS):
            i, j = rng.integers(0, m, size=2)
            checked += int(i != j)
    return checked


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_distance_formula_draws_the_per_pair_stream(seed):
    # one draw of shape (KK_PAIRS, 2) per n gives the same pairs, and leaves
    # the stream at the same place for the next n
    _, details = verify.check_partition_distance_formula(verify.FAST, seed)
    assert details == {"pairs_checked": _per_draw_pairs(seed), "mismatches": 0}


def test_distance_formula_catches_a_wrong_distance(monkeypatch):
    # point 0 of the n = 4 set with its first coordinate flipped: every drawn
    # pair with point 0 is then off by one
    real = verify.kahn_kalai_set

    def flipped(n):
        P = real(n)
        if n != 4:
            return P
        first = (1 - P.points[0][0], *P.points[0][1:])
        return type(P)((first, *P.points[1:]), P.mode, P.labels)

    _, want = verify.check_partition_distance_formula(verify.FULL, 2024)
    monkeypatch.setattr(verify, "kahn_kalai_set", flipped)
    ok, details = verify.check_partition_distance_formula(verify.FULL, 2024)
    assert not ok and details["mismatches"] > 0
    assert details["pairs_checked"] == want["pairs_checked"]
