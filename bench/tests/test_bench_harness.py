"""Tests of the benchmark's own code: span arithmetic, tracer restoration,
seeded operation lists and the reference checks."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import diamray  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import (Pass, fastest_pass, harrell_davis, op_fastest, per_layer,  # noqa: E402
                 run_pass, with_units)


def _span(name, start, end, parent, measure=0):
    return [name, start, end, parent, 0, measure]


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        _span("verify.check_x", 0.0, 10.0, -1),
        _span("coloring.chromatic_number", 1.0, 4.0, 0),
        _span("hypergraph.diameter_hypergraph", 5.0, 9.0, 0),
        _span("geometry.diameter", 6.0, 7.0, 2),
        _span("geometry.sq_dist_matrix", 6.25, 6.75, 3, measure=10),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 0.5, 0.5]
    m = tracing.layer_metrics(spans, run_s=12.0)
    assert m["verify.self_s"] == 3.0
    assert m["coloring.self_s"] == 3.0
    assert m["hypergraph.self_s"] == 3.0
    assert m["geometry.self_s"] == 1.0
    assert m["bench.unattributed_s"] == 2.0
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["bench.unattributed_s"] == 12.0
    assert m["geometry.pairs"] == 10
    assert m["geometry.pairs_per_s"] == 10.0


def test_outermost_time_ignores_nested_spans_of_the_same_group():
    spans = [
        _span("degeneracy.degeneracy_evidence", 0.0, 5.0, -1),
        _span("degeneracy.min_extension_diameter", 1.0, 3.0, 0, measure=4),
        _span("degeneracy.min_extension_diameter", 3.0, 4.0, 0, measure=4),
    ]
    m = tracing.layer_metrics(spans, run_s=5.0)
    assert m["degeneracy.optimizer_s"] == 3.0
    assert m["degeneracy.restarts"] == 8
    assert m["degeneracy.s_per_restart"] == 3.0 / 8


def _bindings():
    """Every function, classmethod and registry entry bound in the package."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "diamray" or name.startswith("diamray."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for cattr, desc in vars(obj).items():
                        out[(name, attr, cattr)] = desc
                if isinstance(obj, list):
                    out[(name, attr, "items")] = tuple(obj)
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    H = diamray.Hypergraph.make(3, [(0, 1), (1, 2)], uniformity=2)
    with tracing.Tracer() as tracer:
        assert diamray.verify.colorable is diamray.coloring.colorable
        assert diamray.verify.colorable is not before[("diamray.verify", "colorable")]
        diamray.verify.colorable(H, 2)
        diamray.colorable(H, 1)
        diamray.PointSet.from_floats([[0.0], [1.0]])
        assert all(fn.__wrapped__ for _, fn, _ in diamray.verify.CHECKS)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["coloring.colorable", "coloring.colorable",
                     "geometry.PointSet.from_floats"]
    assert [s[tracing.MEASURE] for s in tracer.spans[:2]] == [0, 1]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] or after[k] == before[k] for k in before)


def test_every_measure_reads_its_result():
    P = diamray.regular_polygon(7)
    with tracing.Tracer() as tracer:
        diamray.arrows(P, P.select((0, 1, 3)), 2)
        diamray.min_extension_diameter(
            diamray.extension_problem(diamray.isosceles_apex_triangle(160.0), 0, 1),
            restarts=2)
        diamray.far_pair_adversary(restarts=2)
        diamray.apex_angle_audit(trials=50)
        diamray.obtuse_gadget_audit(trials=50)
    got = {}
    for s in tracer.spans:
        if s[tracing.NAME] in tracing.MEASURES:
            got.setdefault(s[tracing.NAME], s[tracing.MEASURE])
    assert got == {
        "ramsey.congruent_copies": 14,
        "geometry.sq_dist_matrix": 21,
        "hypergraph.Hypergraph.make": 14,
        "coloring.colorable": 1,
        "degeneracy.min_extension_diameter": 2,
        "degeneracy.far_pair_adversary": 2,
        "degeneracy.apex_angle_audit": 50,
        "ramsey.obtuse_gadget_audit": 50,
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    def listing(seed):
        return [(op.label, op.inputs) for op in workloads.build(workload, seed, diamray)]

    assert listing(3) == listing(3)
    if workload != "verify-full":
        assert len(listing(3)) >= 100
    assert listing(3) != listing(4)


def _op(workload, label):
    return next(op for op in workloads.build(workload, 5, diamray) if op.label == label)


def test_reference_checks_flag_wrong_results():
    op = _op("exact-hyper", "kk4:diameter")
    right = op.run({})
    assert op.check(right) is None
    wrong = diamray.DiameterInfo(right.value, right.sq, right.pairs[1:])
    assert op.check(wrong) is not None

    op = _op("exact-hyper", "kneser323:colorable-H3-3")
    col = op.run({})
    assert op.check(col) is None
    flipped = diamray.Coloring(tuple(2 - c for c in col.colors))
    assert "least" in op.check(flipped) or "proper" in op.check(flipped)
    assert op.check(None) is not None

    chain = next(op for op in workloads.build("exact-hyper", 5, diamray)
                 if op.label.startswith("chain_report"))
    reps = chain.run({})
    assert chain.check(reps) is None
    wrong = dict(reps[2], chi={**reps[2]["chi"], 2: reps[2]["chi"][2] + 1})
    assert chain.check(reps[:2] + [wrong] + reps[3:]).startswith("set 2")


def test_verify_reports_are_judged_per_check():
    expect = workloads._verify_expectations(0)
    good = [diamray.VerificationReport("kneser-small", "pass",
                                       {"points": 10, "edges": 15, "chi": 3,
                                        "h3_edges": 0}, 1000.0)]
    verdict = workloads.check_reports((good, 1.0), expect)
    assert verdict["kneser-small"] is None
    assert verdict["missing-checks"] is not None
    assert "runtime-accounting" not in verdict
    bad = [diamray.VerificationReport("kneser-small", "pass",
                                      {"points": 10, "edges": 15, "chi": 4,
                                       "h3_edges": 0}, 1000.0)]
    assert workloads.check_reports((bad, 1.0), expect)["kneser-small"] is not None


def test_work_outside_the_checks_timing_is_flagged():
    expect = workloads._verify_expectations(0)
    reps = [diamray.VerificationReport("kneser-small", "pass",
                                       {"points": 10, "edges": 15, "chi": 3,
                                        "h3_edges": 0}, 900.0)]
    verdict = workloads.check_reports((reps, 1.0), expect)
    assert verdict["kneser-small"] is None
    assert verdict["runtime-accounting"] is not None


def test_a_wrong_answer_counts_as_a_failed_operation():
    ops = [_op("exact-hyper", "kneser323:diameter"), _op("exact-hyper", "kk4:diameter")]
    assert run_pass(ops).failures == []
    broken = workloads.Op(ops[1].label, lambda ctx: diamray.DiameterInfo(0.0, 0.0, ()),
                          ops[1].check)
    res = run_pass(ops[:1] + [broken])
    assert res.attempted == 2 and len(res.failures) == 1


def test_per_layer_reports_the_median_traced_pass_whole():
    walls = (3.0, 1.0, 2.0)
    traced = [Pass(wall_s=w, op_ms={(0, "kneser-small"): w}) for w in walls]
    layers = [{"geometry.self_s": w - 0.5, "bench.unattributed_s": 0.5} for w in walls]
    out = per_layer([Pass(wall_s=1.6)], traced, layers, ["kneser-small"])
    assert out["trace.run_s"] == 2.0
    assert out["geometry.self_s"] + out["bench.unattributed_s"] == 2.0
    assert out["verify.kneser-small_ms"] == 2.0
    assert out["trace.overhead_frac"] == 0.25


def test_latency_percentiles_use_each_operations_fastest_time():
    passes = [Pass(op_ms={(0, "a"): a, (1, "b"): b})
              for a, b in ((1.0, 10.0), (3.0, 30.0), (2.0, 20.0))]
    assert op_fastest(passes) == [1.0, 10.0]


def test_run_time_sums_each_operations_fastest_time():
    passes = [Pass(op_s=[(1.0, 0.5), (4.0, 4.0)]), Pass(op_s=[(2.0, 0.25), (3.0, 3.5)])]
    assert fastest_pass(passes) == (4.0, 3.75)


def test_harrell_davis_quantiles():
    checks = [float(x) for x in range(1, 15)]
    assert abs(harrell_davis(checks, 0.5) - 7.5) < 1e-12
    assert 12.0 < harrell_davis(checks, 0.9) < 14.0
    assert abs(harrell_davis([4.0], 0.9) - 4.0) < 1e-12
    assert abs(harrell_davis([2.5] * 7, 0.5) - 2.5) < 1e-12


def test_units_come_from_benchmark_json():
    names = ("setup_s", "run_s", "cpu_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
    out = with_units(dict.fromkeys(names, 1.0), trace=0)
    assert out["peak_rss_mb"] == {"value": 1.0, "unit": "MB"}
    with pytest.raises(SystemExit):
        with_units(dict.fromkeys(names[1:], 1.0), trace=0)
