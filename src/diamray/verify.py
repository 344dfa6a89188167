"""Registry of end-to-end verification checks behind `verify-paper`.

Every check exercises one of the headline constructions or inequalities at
desk scale and reports pass/fail with a structured payload. The fast suite
trims sample counts; `FULL` is what the acceptance tests run, each check
once with a fixed seed. Both suites run the extension optimizer from one
start, because its verdicts rest on a duality certificate, not on the
number of restarts. Checks are deterministic given the seed and the BLAS
thread count, and a seed change may alter sampled instances but never a
verdict. The thread count changes the optimizer's low digits, and rarely
whether it draws a retry start, but not a verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import cos, radians, sin, sqrt

import numpy as np

from .coloring import (
    BRUTE_FORCE_COLORS,
    brute_force_chromatic,
    chain_report,
    chromatic_number,
    colorable,
)
from .constructions import (
    heptagon_config,
    isosceles_apex_triangle,
    kahn_kalai_blocks,
    kahn_kalai_set,
    kneser_points,
    realize,
    regular_polygon,
    regular_simplex,
    simplex_from_sides,
)
from .degeneracy import (
    apex_angle_audit,
    degeneracy_evidence,
    extension_problem,
    far_pair_adversary,
    min_extension_diameter,
    star_witness_values,
)
from .geometry import PointSet, circumcenter, diameter, find_congruence, sq_dist_matrix
from .hypergraph import (
    Hypergraph,
    clique_hypergraph,
    diameter_graph,
    diameter_hypergraph,
    hopf_pannwitz_audit,
    verify_intersection_fact,
)
from .ramsey import (
    EmbeddingConditionError,
    acute_triangle_embedding,
    arrows,
    congruent_copies,
    near_regular_simplex_embedding,
    obtuse_gadget_audit,
    right_triangle_embedding,
)


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    status: str  # pass | fail | skip
    details: dict
    runtime_ms: float

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "runtime_ms": round(self.runtime_ms, 1),
            "details": self.details,
        }


KK_NS = (2, 4, 6)  # partition-distance-formula: the same in both suites
KK_PAIRS = 1000
LATTICE_SPAN = 3  # random_lattice_set draws coordinates from 0..LATTICE_SPAN
CLOSED_FORM_TOL = 1e-9  # optimizer values against their closed forms
# the Fano plane: lines {i, i+1, i+3} mod 7
FANO_EDGES = tuple(sorted(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7)))
                          for i in range(7)))

FAST = {
    "chain_sets": 15,
    "planar_sets": 80,
    "embed_samples": 30,
    "witness_trials": 200,
    "angle_trials": 20000,
    "gadget_trials": 20000,
    "oracle_sets": 8,
}

FULL = {
    "chain_sets": 50,
    "planar_sets": 200,
    "embed_samples": 100,
    "witness_trials": 1000,
    "angle_trials": 100000,
    "gadget_trials": 100000,
    "oracle_sets": 50,
}


def random_lattice_set(rng: np.random.Generator, n_points: int,
                       dim: int) -> PointSet:
    """Random distinct integer points; repeated distances make the diameter
    graph nontrivial, unlike generic float samples."""
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(int(x) for x in rng.integers(0, LATTICE_SPAN + 1, size=dim)))
    return PointSet.exact(sorted(pts))


def _chain_instances(count: int, seed: int):
    """Random point sets with <= 12 points in dimensions 2-4.

    Mixes generic lattice samples (sparse diameter graphs) with polygon,
    cube, and cross-polytope subsets whose repeated distances produce odd
    cycles and matchings in the diameter graph.
    """
    rng = np.random.default_rng(seed)
    kinds = ("lattice", "polygon", "cube", "cross", "lattice", "polygon")
    sets = []
    while len(sets) < count:
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "lattice":
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(6, 13))
            sets.append(random_lattice_set(rng, n, dim))
        elif kind == "polygon":
            n = int(rng.integers(5, 13))
            P = regular_polygon(n)
            if rng.random() < 0.5:
                sets.append(P)
            else:
                k = int(rng.integers(4, n + 1))
                idx = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
                sets.append(P.select(idx))
        elif kind == "cube":
            dim = int(rng.integers(3, 5))
            verts = list(product((0, 1), repeat=dim))
            k = int(rng.integers(5, min(12, len(verts)) + 1))
            idx = rng.choice(len(verts), size=k, replace=False)
            sets.append(PointSet.exact(sorted(verts[int(i)] for i in idx)))
        else:
            dim = int(rng.integers(2, 5))
            pts = []
            for i in range(dim):
                e = [0] * dim
                e[i] = 1
                pts.append(tuple(e))
                pts.append(tuple(-x for x in e))
            if rng.random() < 0.5:
                pts.append(tuple([0] * dim))
            sets.append(PointSet.exact(pts))
    return sets


def check_partition_set_structure(params: dict, seed: int):
    P = kahn_kalai_set(4)
    info = diameter(P)
    nonzeros = [sum(1 for x in p if x != 0) for p in P.points]
    fact = verify_intersection_fact(4, 3)
    ok = (
        len(P) == 35 and P.dim == 28
        and info.sq == 16 and info.value == 4.0
        and all(c == 16 for c in nonzeros)
        and fact["match"]
    )
    return ok, {
        "points": len(P), "dim": P.dim, "diam_sq": int(info.sq),
        "nonzero_coords": nonzeros[0],
        "h3_edges": fact["hyperedge_count"],
        "fact_match": fact["match"],
    }


def check_partition_distance_formula(params: dict, seed: int):
    rng = np.random.default_rng(seed)
    mismatches = 0
    checked = 0
    for n in KK_NS:
        P = kahn_kalai_set(n)
        member = np.array([[e in X for e in range(1, 2 * n + 1)]
                           for X in kahn_kalai_blocks(n)])
        # one draw of shape (KK_PAIRS, 2) is the stream of KK_PAIRS draws of 2
        pairs = rng.integers(0, len(P), size=(KK_PAIRS, 2))
        i, j = pairs[pairs[:, 0] != pairs[:, 1]].T
        t = (member[i] & member[j]).sum(axis=1)
        expected = 2 * n * n - 2 * (t * t + (n - t) * (n - t))
        checked += len(i)
        mismatches += int((sq_dist_matrix(P)[i, j] != expected).sum())
    return mismatches == 0, {"pairs_checked": checked, "mismatches": mismatches}


def check_kneser_small(params: dict, seed: int):
    P = kneser_points(2, 2, 2)
    G = diameter_graph(P)
    degrees = [0] * len(P)
    for i, j in G.edges:
        degrees[i] += 1
        degrees[j] += 1
    chi, _ = chromatic_number(G)
    H3 = diameter_hypergraph(P, 3)
    ok = (len(P) == 10 and G.n_edges == 15 and set(degrees) == {3}
          and chi == 3 and H3.n_edges == 0)
    return ok, {"points": len(P), "edges": G.n_edges, "chi": chi,
                "h3_edges": H3.n_edges}


def check_heptagon_fano(params: dict, seed: int):
    R, P = heptagon_config()
    fam = congruent_copies(R, P)
    fano = Hypergraph.make(7, FANO_EDGES, uniformity=3)
    chi_fano, _ = chromatic_number(fano)
    a2 = arrows(R, P, 2)
    a3 = arrows(R, P, 3)
    fano_subfamily = set(fano.edges) <= set(fam.copies)
    ok = (len(fam) == 14 and a2.arrows and not a3.arrows
          and chi_fano == 3 and fano_subfamily)
    return ok, {"copies": len(fam), "arrows_2": a2.arrows,
                "arrows_3": a3.arrows, "chi_fano": chi_fano,
                "fano_subfamily": fano_subfamily}


def check_chromatic_chain(params: dict, seed: int):
    reports = [chain_report(s)
               for s in _chain_instances(params["chain_sets"], seed)]
    srep = chain_report(regular_simplex(6, 1.0))
    ok = all(r["ok"] for r in reports) and srep["ok"] \
        and srep["chi"][2] == 6 and srep["chi"][3] == 3
    return ok, {
        "random_sets": len(reports),
        "all_ok": all(r["ok"] for r in reports),
        "simplex_chi": {str(k): v for k, v in srep["chi"].items()},
    }


def check_planar_diameter_bound(params: dict, seed: int):
    rng = np.random.default_rng(seed)
    worst = 0
    for _ in range(params["planar_sets"]):
        n = int(rng.integers(3, 41))
        P = PointSet.from_floats(rng.standard_normal((n, 2)))
        rep = hopf_pannwitz_audit(P)
        if not rep["ok"]:
            return False, {"failure": rep}
        worst = max(worst, rep["diameter_edges"])
    gons = {}
    for k in range(1, 7):
        n = 2 * k + 1
        rep = hopf_pannwitz_audit(regular_polygon(n))
        gons[n] = rep["attains_bound"]
        if not rep["ok"]:
            return False, {"failure": rep}
    ok = all(gons.values())
    return ok, {"random_sets": params["planar_sets"],
                "max_edges_seen": worst,
                "odd_gons_attain": gons}


def check_near_regular_embedding(params: dict, seed: int):
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(params["embed_samples"]):
        n = int(rng.integers(3, 6))
        sides = [float(x) for x in rng.uniform(0.97, 1.0, size=n * (n - 1) // 2)]
        spec = simplex_from_sides(sides)
        w = near_regular_simplex_embedding(spec)
        if w.diam_sq != 1 or not w.ok:
            return False, {"failed_sides": sides}
        if w.details["measured_diam_sq_err"] > 1e-9:
            return False, {"diam_err": w.details["measured_diam_sq_err"]}
        count += 1
    try:
        near_regular_simplex_embedding(simplex_from_sides(["1", "3/5", "3/5"]))
        deficit = None
    except EmbeddingConditionError as e:
        deficit = e.deficit
    ok = deficit == Fraction(-7, 25)  # squared sides sum to 43/25, not 2
    return ok, {"samples": count, "thin_triangle_rejected": deficit is not None,
                "deficit": None if deficit is None else float(deficit)}


def check_triangle_embeddings(params: dict, seed: int):
    results = {}
    w = right_triangle_embedding(3, 4)
    results["right_3_4"] = w.ok and w.diam_sq == 25 and diameter(w.host).sq == 25
    w = right_triangle_embedding(1, 1)
    results["right_1_1"] = w.ok and w.diam_sq == 2 and diameter(w.host).sq == 2
    w = acute_triangle_embedding(4, 5, 6)
    d = w.details
    results["acute_4_5_6"] = w.ok and w.diam_sq == 36 \
        and (d["x_sq"], d["l1_sq"], d["l2_sq"]) == (5, 20, 11) \
        and d["a_sq"] == d["l2_sq"] + d["x_sq"] \
        and d["c_sq"] == d["l1_sq"] + d["l2_sq"] + d["x_sq"]
    w = acute_triangle_embedding(1, 1, 1)
    results["equilateral"] = w.ok and w.diam_sq == 1 and len(w.factors) == 1 \
        and find_congruence(w.embedded, regular_simplex(3, 1.0)) is not None
    ok = all(results.values())
    return ok, results


def check_apex_degeneracy(params: dict, seed: int):
    tri160 = isosceles_apex_triangle(160.0)
    res160 = min_extension_diameter(extension_problem(tri160, 0, 1),
                                    restarts=1, seed=seed)
    supported = res160.lower > 1.0 + 1e-4
    # second route: the in-plane bisector placement, with the leg l
    leg = 1.0 / (2.0 * sin(radians(80.0)))
    closed = sqrt(leg * leg + 1.0 - 2.0 * leg * cos(radians(80.0)))
    closed_ok = abs(res160.value - closed) <= CLOSED_FORM_TOL

    tri150 = isosceles_apex_triangle(150.0)
    q = circumcenter(*tri150.points)
    pts = tri150.as_array()
    witness_val = max(1.0, max(float(np.linalg.norm(q - p)) for p in pts))
    unit_ok = abs(float(np.linalg.norm(q - pts[0])) - 1.0) <= 1e-9
    boundary = witness_val <= 1.0 + 1e-6 and unit_ok

    acute = realize(simplex_from_sides([0.9, 0.95, 1.0]))
    rep = degeneracy_evidence(acute, 1, restarts=1, seed=seed)
    refuted = rep["overall"] == "refuted"

    ok = supported and boundary and refuted and closed_ok
    return ok, {
        "apex160_value": res160.value,
        "apex160_supported": supported,
        "apex150_circumcenter_value": witness_val,
        "acute_overall": rep["overall"],
        "apex160_lower": res160.lower,
        "certified": res160.certified
        and all(a["certified"] for a in rep["anchors"]),
        "apex160_closed_form": closed,
    }


def check_corner_star_extension(params: dict, seed: int):
    values = star_witness_values(params["witness_trials"], seed)
    worst = float(values.max(initial=-np.inf))
    witness_ok = worst < 0.5

    adv = far_pair_adversary(restarts=1, seed=seed)
    adv_ok = adv["upper_bound"] < 0.5 - 1e-3
    # the adversary reads the star's extension: |p_i - e_j|^2 = 3 - 2 x_i(j)
    ext_value = sqrt(3.0 - 2.0 * adv["best_max_min"])
    ext_lower = sqrt(3.0 - 2.0 * adv["upper_bound"])
    ext_ok = ext_lower > sqrt(2.0) + 1e-3

    # second route: the adversary's optimum sqrt(2)/3, and the extension's
    # squared value 3 - 2 sqrt(2)/3
    adv_closed = sqrt(2.0) / 3.0
    ext_closed = sqrt(3.0 - 2.0 * adv_closed)
    closed_ok = (abs(adv["best_max_min"] - adv_closed) <= CLOSED_FORM_TOL
                 and abs(ext_value - ext_closed) <= CLOSED_FORM_TOL)

    ok = witness_ok and adv_ok and ext_ok and closed_ok
    return ok, {
        "witness_trials": params["witness_trials"],
        "witness_worst_coord": worst,
        "adversary_max_min": adv["best_max_min"],
        "extension_value": ext_value,
        "sqrt2": sqrt(2.0),
        "adversary_upper": adv["upper_bound"],
        "extension_lower": ext_lower,
        "certified": adv["certified"],
        "adversary_closed_form": adv_closed,
        "extension_closed_form": ext_closed,
    }


def check_apex_angle_audit(params: dict, seed: int):
    rep = apex_angle_audit(trials=params["angle_trials"], seed=seed)
    return rep["ok"], {"trials": rep["trials"], "violations": rep["violations"],
                       "max_angle": rep["max_angle"], "attempts": rep["attempts"]}


def check_mod8_gadget(params: dict, seed: int):
    rep = obtuse_gadget_audit(K=2.0, trials=params["gadget_trials"], seed=seed)
    # thick-leg variant: the residue argument does not protect it, and the
    # audit must be sharp enough to find monochromatic placements there
    thick = obtuse_gadget_audit(K=2.0, trials=100000, seed=11,
                                legs=1.0 + 1.0 / 68.0)
    ok = rep["xi"] == 1.0 / 68.0 and rep["monochromatic"] == 0 \
        and thick["monochromatic"] > 0
    return ok, {
        "trials": rep["trials"],
        "attempts": rep["attempts"],
        "monochromatic": rep["monochromatic"],
        "boundary_flagged": rep["boundary_flagged"],
        "legs": rep["legs"],
        "thick_leg_monochromatic": thick["monochromatic"],
    }


def check_kneser_h4_empty(params: dict, seed: int):
    P = kneser_points(3, 2, 3)
    G = diameter_graph(P)
    H4 = clique_hypergraph(G, 4)
    H3 = clique_hypergraph(G, 3)
    ok = len(P) == 165 and H4.n_edges == 0
    return ok, {"points": len(P), "h3_edges": H3.n_edges,
                "h4_edges": H4.n_edges}


def check_kneser_chi_slow(params: dict, seed: int):
    P = kneser_points(3, 2, 3)
    H3 = diameter_hypergraph(P, 3)
    two = colorable(H3, 2)
    return two is None, {"points": len(P), "h3_edges": H3.n_edges,
                         "two_colorable": two is not None}


def _oracle_hypergraphs(params: dict, seed: int):
    out = []
    G = diameter_graph(kneser_points(2, 2, 2))
    out.append(("kneser-h2", G))
    out.append(("kneser-h3", clique_hypergraph(G, 3)))
    R, pat = heptagon_config()
    out.append(("heptagon-h2", diameter_graph(R)))
    out.append(("heptagon-copies", congruent_copies(R, pat).as_hypergraph))
    out.append(("fano", Hypergraph.make(7, FANO_EDGES, uniformity=3)))
    G = diameter_graph(regular_simplex(6, 1.0))
    for r in (2, 3, 4):
        out.append((f"simplex6-h{r}", clique_hypergraph(G, r)))
    for idx, s in enumerate(_chain_instances(params["oracle_sets"], seed)):
        G = diameter_graph(s)
        for r in (2, 3, 4):
            out.append((f"lattice{idx}-h{r}", clique_hypergraph(G, r)))
    return [(name, h) for name, h in out if h.n_vertices <= 12]


def check_solver_oracle(params: dict, seed: int):
    mismatches = []
    count = 0
    for name, H in _oracle_hypergraphs(params, seed):
        ref = brute_force_chromatic(H)
        chi, witness = chromatic_number(H)
        chi_no_bound, _ = chromatic_number(H, use_clique_bound=False)
        agree = chi == ref if ref is not None else chi > BRUTE_FORCE_COLORS
        if not agree or chi != chi_no_bound:
            mismatches.append({"instance": name, "solver": chi,
                               "brute_force": ref, "no_bound": chi_no_bound})
        count += 1
    return not mismatches, {"instances": count, "mismatches": mismatches}


CHECKS = [
    ("partition-set-structure", check_partition_set_structure, False),
    ("partition-distance-formula", check_partition_distance_formula, False),
    ("kneser-small", check_kneser_small, False),
    ("heptagon-fano", check_heptagon_fano, False),
    ("chromatic-chain", check_chromatic_chain, False),
    ("planar-diameter-bound", check_planar_diameter_bound, False),
    ("near-regular-embedding", check_near_regular_embedding, False),
    ("triangle-embeddings", check_triangle_embeddings, False),
    ("apex-degeneracy", check_apex_degeneracy, False),
    ("corner-star-extension", check_corner_star_extension, False),
    ("apex-angle-audit", check_apex_angle_audit, False),
    ("mod8-gadget", check_mod8_gadget, False),
    ("kneser-h4-empty", check_kneser_h4_empty, False),
    ("solver-oracle", check_solver_oracle, False),
    ("kneser-chi-slow", check_kneser_chi_slow, True),
]


def verify_paper(suite: str = "fast", seed: int = 0, slow: bool = False):
    """Run the registered checks; returns one VerificationReport per check.

    Failures come back as reports, never exceptions. Slow-flagged checks are
    skipped unless `slow` is set. Each `runtime_ms` runs from the previous
    check's clock reading to its own, so they sum to the loop's wall time.
    """
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    params = FAST if suite == "fast" else FULL
    reports = []
    clock = time.perf_counter()
    for offset, (check_id, fn, is_slow) in enumerate(CHECKS):
        if is_slow and not slow:
            status, details = "skip", {"reason": "slow flag not set"}
        else:
            try:
                ok, details = fn(params, seed + 1000 * offset)
                status = "pass" if ok else "fail"
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                status = "fail"
                details = {"error": f"{type(exc).__name__}: {exc}"}
        now = time.perf_counter()
        reports.append(VerificationReport(check_id, status, details,
                                          (now - clock) * 1000.0))
        clock = now
    return reports
