"""The benchmark's workloads: seeded operation lists with reference checks.

A workload is a fixed list of operations generated from the seed. Each
operation calls the program (through the `diamray` package object, so a
tracer's wrappers are seen) and hands its result to a check that compares
it with an answer from `reference`, never from diamray itself. Inputs are
raw coordinates; point sets are built inside the operations because users
pay that cost on every call.

Known defects are kept out of the timed lists and run as probes (see
`probe_ops`), so a pass counts only operations the program should get right.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations, product
from math import isclose, sqrt
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

WORKLOADS = ("verify-full", "exact-hyper")
STORED = json.loads((Path(__file__).with_name("reference_data.json")).read_text())


@dataclass
class Op:
    """One operation: `run(ctx)` calls the program, `check(result)` returns
    None when the result is right and a reason otherwise.

    A call that bundles several operations (verify_paper runs 14 checks)
    has a check returning {operation: None or reason} and a `split`
    giving each operation's time in ms from the result.
    """

    label: str
    run: Callable[[dict], Any]
    check: Callable[[Any], Any]
    inputs: Any = field(default=None, repr=False)
    split: Callable[[Any], list] | None = None


def build(workload: str, seed: int, dm) -> list:
    """The operation list of `workload` for `seed`; `dm` is the diamray package."""
    if workload == "verify-full":
        return _verify_full(seed, dm)
    if workload == "exact-hyper":
        return _exact_hyper(np.random.default_rng(seed), dm)
    raise ValueError(f"unknown workload {workload!r}")


def _expect(cond: bool, reason: str):
    return None if cond else reason


def _lazy(fn):
    """Compute a reference on first use (outside the timed region) and keep it."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ------------------------------------------------------------- verify-full

# Tolerance between the call's wall time and the sum of the checks'
# self-reported runtime_ms: the loop around the checks costs microseconds.
RUNTIME_SLACK = (0.005, 0.010)  # (share of the wall time, seconds)


def _verify_expectations(seed):
    """Closed-form values the full suite's checks report, keyed by check id.

    Two checks draw their inputs from the seed; their reference replays the
    draws (check k gets seed + 1000 k) and answers them with `reference`.
    """
    kk4_h3 = STORED["kk4_h3_edges"]
    kneser_h3 = STORED["kneser_3_2_3_h3_edges"]
    pairs_checked = _lazy(lambda: _kk_pairs_checked(seed + 1000))
    planar_max = _lazy(lambda: _planar_max_edges(seed + 5000))
    return {
        "partition-set-structure": lambda d: (
            d["points"] == 35 and d["dim"] == 28 and d["diam_sq"] == 16
            and d["h3_edges"] == kk4_h3 and d["fact_match"]),
        "partition-distance-formula": lambda d: (
            d["mismatches"] == 0 and d["pairs_checked"] == pairs_checked()),
        # Petersen graph: 10 vertices, 15 edges, chromatic number 3
        "kneser-small": lambda d: (d["points"] == 10 and d["edges"] == 15
                                   and d["chi"] == 3 and d["h3_edges"] == 0),
        "heptagon-fano": lambda d: (d["copies"] == 14 and d["arrows_2"]
                                    and not d["arrows_3"] and d["chi_fano"] == 3),
        # regular 6-simplex: H_r is complete r-uniform, chi = ceil(6/(r-1))
        "chromatic-chain": lambda d: (
            d["random_sets"] == 50 and d["all_ok"]
            and d["simplex_chi"] == {"2": 6, "3": 3, "4": 2}),
        # the regular (2k+1)-gons attain the Hopf-Pannwitz bound n
        "planar-diameter-bound": lambda d: (
            d["random_sets"] == 200 and d["max_edges_seen"] == planar_max()
            and d["odd_gons_attain"] == {n: True for n in (3, 5, 7, 9, 11, 13)}),
        # sides 1, 3/5, 3/5: squared sum 1.72 against the bound 2
        "near-regular-embedding": lambda d: (
            d["samples"] == 100 and d["thin_triangle_rejected"]
            and abs(d["deficit"] + 0.28) < 1e-12),
        # the details are the program's own flags: judged by status alone
        "triangle-embeddings": lambda d: all(d.values()),
        "apex-degeneracy": lambda d: (d["apex160_supported"]
                                      and d["acute_overall"] == "refuted"),
        "corner-star-extension": lambda d: (d["witness_trials"] == 1000
                                            and d["witness_worst_coord"] < 0.5
                                            and d["adversary_max_min"] < 0.5
                                            and d["extension_value"] > sqrt(2.0)),
        # a bounded unit extension caps the apex angle at 150 degrees
        "apex-angle-audit": lambda d: (d["trials"] == 100000 and d["violations"] == 0
                                       and 90.0 < d["max_angle"] <= 150.0 + 1e-6),
        "mod8-gadget": lambda d: (d["trials"] == 100000 and d["monochromatic"] == 0
                                  and d["thick_leg_monochromatic"] > 0),
        "kneser-h4-empty": lambda d: (d["points"] == 165 and d["h4_edges"] == 0
                                      and d["h3_edges"] == kneser_h3),
        # 8 fixed instances (Kneser(2,2,2) H2/H3, heptagon H2 and copies, Fano,
        # 6-simplex H2-H4) plus H2-H4 of each of 50 seeded sets of <= 12 points
        "solver-oracle": lambda d: d["instances"] == 8 + 3 * 50 and d["mismatches"] == [],
    }


def _kk_pairs_checked(seed):
    """Distinct index pairs drawn by partition-distance-formula: 1000 draws
    on each of kk2, kk4 and kk6, minus those with i == j."""
    rng = np.random.default_rng(seed)
    checked = 0
    for n in (2, 4, 6):
        m = len(ref.kk_blocks(n))
        for _ in range(1000):
            i, j = rng.integers(0, m, size=2)
            checked += int(i != j)
    return checked


def _planar_max_edges(seed):
    """Most diameter pairs over planar-diameter-bound's 200 Gaussian sets."""
    rng = np.random.default_rng(seed)
    worst = 0
    for _ in range(200):
        n = int(rng.integers(3, 41))
        worst = max(worst, len(ref.float_diameter(rng.standard_normal((n, 2)))[1]))
    return worst


VERIFY_CHECK_IDS = tuple(_verify_expectations(0))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _verify_full(seed, dm):
    """One `verify_paper("full", seed)` call; each non-slow check is an
    operation, judged by `check_reports`."""
    expect = _verify_expectations(seed)
    return [Op(f"verify_paper:full:seed={seed}",
               lambda ctx: _timed(dm.verify_paper, "full", seed),
               lambda res: check_reports(res, expect),
               inputs=("full", seed),
               split=lambda res: {r.check_id: r.runtime_ms for r in res[0]
                                  if r.status != "skip"})]


def check_reports(result, expect) -> dict:
    """check id -> None or failure reason, for every non-skipped report of
    `result` = (reports, wall seconds of the call).

    The per-check times are the program's own `runtime_ms`. When their sum
    drifts from the call's wall time, the program timed a different span of
    its work, and a "runtime-accounting" failure is added.
    """
    reports, wall_s = result
    out = {}
    for rep in reports:
        if rep.status == "skip":
            continue
        if rep.status != "pass":
            out[rep.check_id] = f"status {rep.status}: {rep.details}"
        elif rep.check_id not in expect:
            out[rep.check_id] = "no reference for this check"
        else:
            out[rep.check_id] = _expect(expect[rep.check_id](rep.details),
                                        f"details differ: {rep.details}")
    if set(out) != set(expect):
        missing = sorted(set(expect) - set(out))
        out["missing-checks"] = f"checks not run: {missing}" if missing else None
    reported_s = sum(rep.runtime_ms for rep in reports) / 1e3
    share, floor = RUNTIME_SLACK
    if abs(wall_s - reported_s) > share * wall_s + floor:
        out["runtime-accounting"] = (f"checks report {reported_s:.3f} s of a "
                                     f"{wall_s:.3f} s call")
    return out


# ------------------------------------------------------------- exact-hyper

def _kk_coords(n):
    """Partition-set coordinates from the blocks: 1 where a pair splits."""
    pairs = list(combinations(range(1, 2 * n + 1), 2))
    return [tuple(int((a in X) != (b in X)) for a, b in pairs)
            for X in ref.kk_blocks(n)]


def _lattice(rng, n_points, dim, span=3):
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(int(x) for x in rng.integers(0, span + 1, size=dim)))
    return sorted(pts)


def _chain_input(rng, i):
    """The i-th <= 12-point set of the chain audit, as ("exact" | "float",
    coordinates): lattice sample, polygon or polygon subset, cube subset,
    or cross-polytope. Kind and size cycle with i so that every seed has the
    same mix and only the points depend on the seed."""
    kind, j = ("lattice", "polygon", "cube", "cross")[i % 4], i // 4
    if kind == "lattice":
        return "exact", _lattice(rng, 6 + j % 7, 2 + (j // 7) % 3)
    if kind == "polygon":
        n = 5 + j % 8
        coords = ref.polygon_coords(n)
        if (j // 8) % 2:
            k = 4 + (j // 16) % (n - 3)
            coords = [coords[int(v)] for v in sorted(rng.choice(n, k, replace=False))]
        return "float", coords
    if kind == "cube":
        dim = 3 + j % 2
        verts = list(product((0, 1), repeat=dim))
        k = 5 + (j // 2) % (min(12, len(verts)) - 4)
        return "exact", sorted(verts[int(v)] for v in rng.choice(len(verts), k,
                                                                 replace=False))
    dim = 2 + j % 3
    pts = []
    for axis in range(dim):
        e = [0] * dim
        e[axis] = 1
        pts += [tuple(e), tuple(-x for x in e)]
    if (j // 3) % 2:
        pts.append((0,) * dim)
    return "exact", pts


def _pointset(dm, mode, coords):
    if mode == "exact":
        return dm.PointSet.exact(coords)
    return dm.PointSet.from_floats(coords)


def _chain_reference(mode, coords):
    if mode == "exact":
        _, pairs = ref.exact_diameter(coords)
    else:
        _, pairs = ref.float_diameter(coords)
    return ref.chain_chis(len(coords), pairs)


def _check_chains(expected):
    def check(reports):
        for k, (rep, chis) in enumerate(zip(reports, expected)):
            if not (rep["chi"] == chis() and rep["ok"] and rep["chain_ok"]
                    and rep["ratio_ok"] and rep["grouped_coloring_ok"]):
                return f"set {k}: chain report {rep} != reference chi {chis()}"
        return _expect(len(reports) == len(expected), "reports missing")
    return check


def _check_edges(expected, digest=None):
    def check(H):
        if digest is not None:
            n_edges, sha = digest
            return _expect(H.n_edges == n_edges and ref.edges_digest(H.edges) == sha,
                           f"{H.n_edges} edges, digest differs from reference")
        want = expected()
        return _expect(list(H.edges) == want,
                       f"{H.n_edges} edges, reference has {len(want)}")
    return check


def _check_diameter(expected):
    def check(info):
        sq, pairs = expected()
        return _expect(info.sq == sq and list(info.pairs) == pairs,
                       f"diam^2 {info.sq} with {len(info.pairs)} pairs, "
                       f"reference {sq} with {len(pairs)}")
    return check


def _check_coloring(edges, chi, witness):
    def check(res):
        k, col = res if isinstance(res, tuple) else (None, res)
        if col is None:
            return "no coloring returned"
        colors = col.colors
        if chi is not None and k != chi:
            return f"chi {k}, reference {chi}"
        if not ref.is_proper(colors, edges()):
            return "witness is not proper"
        return _expect(tuple(colors) == tuple(witness()),
                       "witness is not the lexicographically least one")
    return check


def _scaled_diameter_ops(rng, dm, count, lo_bits, hi_bits, prefix):
    ops = []
    kk4 = _kk_coords(4)
    for i in range(count):
        scale = int(rng.integers(2 ** lo_bits, 2 ** hi_bits))
        if i % 5 == 0:
            name, base = "kk4", kk4
        else:
            name = "lattice"
            base = _lattice(rng, 6 + i % 7, 2 + i % 3)
        coords = [tuple(scale * x for x in p) for p in base]
        ops.append(Op(
            f"{prefix}:diameter:{name}x{scale}",
            lambda ctx, c=coords: dm.diameter(dm.PointSet.exact(c)),
            _check_diameter(_lazy(lambda c=coords: ref.exact_diameter(c))),
            inputs=coords))
    return ops


def _exact_hyper(rng, dm):
    kk4_adj = _lazy(lambda: ref.kk_adjacency(4))
    kk6_adj = _lazy(lambda: ref.kk_adjacency(6))
    kn_adj = _lazy(lambda: ref.kneser_adjacency(3, 2, 3))
    kk4_h3 = _lazy(lambda: ref.cliques(kk4_adj(), 3))
    kn_h3 = _lazy(lambda: ref.cliques(kn_adj(), 3))
    cube6 = list(product((0, 1), repeat=6))
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    # unit squares of the 6-cube are its 2-faces: C(6,2) * 2^4 = 240
    cube_faces = _lazy(lambda: sorted(
        tuple(sorted(i for i, v in enumerate(cube6)
                     if all(v[c] == f[c] for c in range(6) if c not in (a, b))))
        for a, b in combinations(range(6), 2) for f in product((0, 1), repeat=6)
        if f[a] == 0 and f[b] == 0))
    kk = dm.kahn_kalai_set
    kn = lambda: dm.kneser_points(3, 2, 3)
    heavy = [
        Op("kk4:diameter", lambda ctx: dm.diameter(kk(4)), _check_diameter(
            lambda: (ref.kk_diameter_sq(4), ref.graph_pairs(kk4_adj())))),
        Op("kk4:H3", lambda ctx: dm.diameter_hypergraph(kk(4), 3),
           _check_edges(kk4_h3)),
        Op("kk4:H4", lambda ctx: dm.diameter_hypergraph(kk(4), 4),
           _check_edges(_lazy(lambda: ref.cliques(kk4_adj(), 4)))),
        Op("kk6:diameter", lambda ctx: dm.diameter(kk(6)), _check_diameter(
            lambda: (ref.kk_diameter_sq(6), ref.graph_pairs(kk6_adj())))),
        # H4(kk6) is left out: 9,979,200 edges, about 50 s and 2.8 GB
        Op("kk6:H3", lambda ctx: dm.diameter_hypergraph(kk(6), 3),
           _check_edges(None, (STORED["kk6_h3_edges"], STORED["kk6_h3_sha256"]))),
        Op("kneser323:diameter", lambda ctx: dm.diameter(kn()), _check_diameter(
            lambda: (6, ref.graph_pairs(kn_adj())))),
        Op("kneser323:H3", lambda ctx: dm.diameter_hypergraph(kn(), 3),
           _check_edges(kn_h3)),
        Op("kneser323:H4", lambda ctx: dm.diameter_hypergraph(kn(), 4),
           _check_edges(lambda: [])),
        Op("kk4:chromatic_number-H3",
           lambda ctx: dm.chromatic_number(dm.diameter_hypergraph(kk(4), 3)),
           _check_coloring(kk4_h3, STORED["kk4_h3_chi"],
                           lambda: STORED["kk4_h3_witness"])),
        Op("kneser323:colorable-H3-3",
           lambda ctx: dm.colorable(dm.diameter_hypergraph(kn(), 3), 3),
           _check_coloring(kn_h3, None, _lazy(
               lambda: ref.lex_least_coloring(165, kn_h3(), ref.kneser_chi(3, 2, 3))))),
        Op("cube6:arrows-square-2",
           lambda ctx: dm.arrows(dm.PointSet.exact(cube6), dm.PointSet.exact(square), 2),
           _check_arrow(cube_faces, 64, 2)),
        Op("regular_simplex_arrow-5-2",
           lambda ctx: dm.regular_simplex_arrow(5, 2), _check_simplex_arrow),
    ]
    # 800 chain sets in batches of 4: one set takes ~0.3 ms, too short to
    # time steadily on a shared machine. 200 batches also keep the p90
    # inside the batches' tail instead of on their single slowest one.
    light = []
    for b in range(200):
        sets = [_chain_input(rng, 4 * b + i) for i in range(4)]
        light.append(Op(
            f"chain_report:batch{b}:" + ",".join(f"{m}{len(c)}" for m, c in sets),
            lambda ctx, sets=sets: [dm.chain_report(_pointset(dm, m, c)) for m, c in sets],
            _check_chains([_lazy(lambda m=m, c=c: _chain_reference(m, c))
                           for m, c in sets]),
            inputs=sets))
    # below 2^28 the int64 Gram products of these sets cannot wrap
    light += _scaled_diameter_ops(rng, dm, 25, 20, 28, "scaled")
    # spread the heavy operations through the pass, so the short ones are
    # timed across the whole pass and not in one burst
    step = len(light) // len(heavy)
    return [op for k, h in enumerate(heavy)
            for op in [h] + light[k * step:(k + 1) * step]] + light[len(heavy) * step:]


def _check_arrow(copies, n, r):
    """Reference arrow decision: brute-force r-coloring of the copy family."""
    witness = _lazy(lambda: ref.lex_least_coloring(n, copies(), r))

    def check(res):
        want = witness()
        if res.num_copies != len(copies()):
            return f"{res.num_copies} copies, reference {len(copies())}"
        if res.arrows != (want is None):
            return f"arrows={res.arrows}, reference {want is None}"
        if want is None:
            return None
        if not ref.is_proper(res.evading.colors, copies()):
            return "evading coloring leaves a copy monochromatic"
        return _expect(res.evading.colors == want,
                       "evading coloring is not the lexicographically least one")
    return check


def _check_simplex_arrow(res):
    host, rep = res
    return _expect(len(host) == 11 and rep["pattern_vertices"] == 6
                   and rep["pigeonhole_ok"] and rep["exact_checked"]
                   and rep["exact_arrows"] is True,
                   f"regular simplex arrow report {rep}")


# ------------------------------------------------------------------ probes

PROBE_DEFECTS = {
    "exact-hyper": "int64 overflow in geometry.sq_dist_matrix",
    "verify-full": "absolute tolerance below 1 in geometry.close",
}


def probe_ops(workload: str, seed: int, dm) -> list:
    """Operations that reach a known defect, one defect per workload.

    They are run untimed and reported apart from `failed`, since they fail
    on every seed until the defect is fixed.
    """
    rng = np.random.default_rng([seed, 31])
    if workload == "exact-hyper":
        # scales of at least 2^31 square past int64 in the Gram expansion
        return _scaled_diameter_ops(rng, dm, 5, 31, 32, "probe")
    if workload == "verify-full":
        # heptagon-fano's configuration at circumradius ~1e-6: 14 copies,
        # arrows at r = 2 and not at r = 3
        return _polygon_ops(rng, dm, 7, 1e-6 * float(rng.uniform(1.0, 10.0)))
    return []


def _polygon_ops(rng, dm, n, scale):
    """A regular n-gon from raw coordinates through from_floats, diameter,
    the Hopf-Pannwitz audit, the copies of triangle (0, 1, 3) and arrows."""
    key = f"gon{n}"
    coords = ref.polygon_coords(n, scale, float(rng.uniform(0, 6.283185307179586)))
    pairs = ref.polygon_diameter_pairs(n)
    ops = [
        Op(f"from_floats:{key}@{scale:.4g}",
           lambda ctx: ctx.__setitem__(key, dm.PointSet.from_floats(coords)) or ctx[key],
           lambda P: _expect(len(P) == n and list(P.points) == coords,
                             "points differ from the input"), inputs=coords),
        Op(f"diameter:{key}",
           lambda ctx: dm.diameter(ctx[key]),
           lambda info: _expect(list(info.pairs) == pairs and isclose(
               info.value, 2 * scale * (1.0 if n % 2 == 0 else
                                        np.sin(np.pi * (n // 2) / n)), rel_tol=1e-9),
               f"{len(info.pairs)} diameter pairs, closed form {len(pairs)}")),
        Op(f"hopf_pannwitz_audit:{key}",
           lambda ctx: dm.hopf_pannwitz_audit(ctx[key]),
           _check_hopf(n, len(pairs))),
    ]
    copies = ref.polygon_triangle_copies(n)
    ops.append(Op(
        f"congruent_copies:{key}:tri013",
        lambda ctx: dm.congruent_copies(ctx[key], ctx[key].select((0, 1, 3))),
        lambda fam: _expect(list(fam.copies) == copies,
                            f"{len(fam)} copies, closed form {len(copies)}")))
    for r in (2, 3):
        ops.append(Op(
            f"arrows:{key}:tri013:r={r}",
            lambda ctx, r=r: dm.arrows(ctx[key], ctx[key].select((0, 1, 3)), r),
            _check_arrow(lambda: copies, n, r)))
    return ops


def _check_hopf(n, edges):
    def check(rep):
        return _expect(rep["diameter_edges"] == edges and rep["bound"] == n
                       and rep["ok"] and rep["attains_bound"] == (edges == n),
                       f"audit {rep}, reference {edges} diameter edges")
    return check

