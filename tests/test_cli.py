"""CLI surface: subcommands, JSON round-trips, exit codes."""

import json

import pytest

from diamray import (
    Hypergraph,
    PointSet,
    brick,
    cube_corner_set,
    diameter_hypergraph,
    heptagon_config,
    isosceles_apex_triangle,
    kahn_kalai_set,
    kneser_points,
    realize,
    regular_polygon,
    regular_simplex,
    simplex_from_sides,
)
from diamray.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_construct_kk4(capsys):
    code, doc = _run(capsys, "construct", "kk", "-n", "4")
    assert code == 0
    assert doc["schema"] == 1 and doc["mode"] == "exact"
    assert len(doc["points"]) == 35 and doc["dim"] == 28


def test_construct_all_families(capsys):
    # each family prints its own library constructor's set
    for argv, want in (
        (["construct", "kk", "-n", "2"], kahn_kalai_set(2)),
        (["construct", "kneser", "-n", "2", "--k", "2", "--r", "2"],
         kneser_points(2, 2, 2)),
        (["construct", "simplex", "--vertices", "4", "--side", "1.0"],
         regular_simplex(4, 1.0)),
        (["construct", "simplex", "--sides", "3,4,5"],
         realize(simplex_from_sides([3, 4, 5]))),
        (["construct", "polygon", "-n", "9"], regular_polygon(9, 1.0)),
        (["construct", "brick", "--lengths", "1,2,3"], brick([1, 2, 3])),
        (["construct", "brick", "--lengths", "1.5,2"], brick([1.5, 2.0])),
        (["construct", "t5"], cube_corner_set()),
        (["construct", "heptagon"], heptagon_config()[0]),
        (["construct", "heptagon", "--part", "pattern",
          "--circumradius", "2"], heptagon_config(2.0)[1]),
    ):
        code, doc = _run(capsys, *argv)
        assert code == 0
        assert doc == json.loads(json.dumps(want.to_json())), argv
        PointSet.from_json(doc)  # must parse back


def test_output_flag_writes_the_stdout_document(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    pet = tmp_path / "pet.json"
    pet.write_text(json.dumps(kneser_points(2, 2, 2).to_json()))
    h2 = tmp_path / "h2.json"
    h2.write_text(json.dumps(diameter_hypergraph(kneser_points(2, 2, 2), 2)
                             .to_json()))
    leaves = (
        ["construct", "kk", "-n", "2"],
        ["construct", "kneser", "-n", "2", "--k", "2", "--r", "2"],
        ["construct", "simplex", "--vertices", "3"],
        ["construct", "polygon", "-n", "5"],
        ["construct", "brick", "--lengths", "1/2,3"],
        ["construct", "t5"],
        ["construct", "heptagon", "--part", "pattern"],
        ["diam", "--input", str(pet)],
        ["hyper", "--input", str(pet), "-r", "3"],
        ["chrom", "--input", str(h2)],
        ["arrow", "--host", str(pet), "--pattern", str(tri), "-r", "2"],
        ["embed", "--sides", "1,0.6,0.6"],
        ["gadget", "--trials", "500"],
        ["degen", "--input", str(tri), "-t", "1", "--anchor", "0",
         "--restarts", "1"],
        ["t5-witness", "--trials", "10"],
        ["verify-paper", "--suite", "fast"],
    )
    for k, argv in enumerate(leaves):
        code, printed = _run(capsys, *argv)
        path = tmp_path / f"out{k}.json"
        assert main([*argv, "-o", str(path)]) == code, argv
        assert capsys.readouterr().out == ""
        written = json.loads(path.read_text())
        for doc in (printed, written):  # the one field a rerun changes
            for check in doc.get("checks", ()):
                check["runtime_ms"] = None
        assert written == printed, argv


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["construct", "t5", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


def test_pipeline_round_trip(tmp_path, capsys):
    kneser = tmp_path / "kneser.json"
    code, _ = _run(capsys, "construct", "kneser", "-n", "2", "--k", "2",
                   "--r", "2", "-o", str(kneser))
    assert code == 0

    code, doc = _run(capsys, "diam", "--input", str(kneser))
    assert code == 0
    assert doc["diameter"] == 2.0 and doc["diameter_sq"] == 4

    h2 = tmp_path / "h2.json"
    code, _ = _run(capsys, "hyper", "--input", str(kneser), "-r", "2",
                   "-o", str(h2))
    assert code == 0
    assert len(Hypergraph.from_json(json.loads(h2.read_text())).edges) == 15

    code, doc = _run(capsys, "chrom", "--input", str(h2))
    assert code == 0 and doc["chi"] == 3

    code, doc = _run(capsys, "chrom", "--input", str(h2), "--max-colors", "2")
    assert code == 0 and doc["colorable"] is False


def test_exact_rationals_survive_round_trip(tmp_path, capsys):
    brick_file = tmp_path / "brick.json"
    code, doc = _run(capsys, "construct", "brick", "--lengths", "1/2,3",
                     "-o", str(brick_file))
    assert code == 0
    text = brick_file.read_text()
    assert "1/2" in text
    code, doc = _run(capsys, "diam", "--input", str(brick_file))
    assert code == 0
    assert doc["diameter_sq"] == "37/4"


def test_chrom_fano(tmp_path, capsys):
    fano = Hypergraph.make(
        7, [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)],
        uniformity=3)
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(fano.to_json()))
    code, doc = _run(capsys, "chrom", "--input", str(path))
    assert code == 0 and doc["chi"] == 3


def test_arrow_heptagon(tmp_path, capsys):
    host = tmp_path / "host.json"
    pat = tmp_path / "pattern.json"
    assert _run(capsys, "construct", "heptagon", "-o", str(host))[0] == 0
    assert _run(capsys, "construct", "heptagon", "--part", "pattern",
                "-o", str(pat))[0] == 0
    code, doc = _run(capsys, "arrow", "--host", str(host),
                     "--pattern", str(pat), "-r", "2")
    assert code == 0
    assert doc["arrows"] is True and doc["num_copies"] == 14
    assert doc["pattern_automorphisms"] == 1
    code, doc = _run(capsys, "arrow", "--host", str(host),
                     "--pattern", str(pat), "-r", "3")
    assert code == 0 and doc["arrows"] is False
    assert doc["evading"] is not None


def test_embed_accept_and_reject(capsys):
    code, doc = _run(capsys, "embed", "--sides", "1,0.99,0.98")
    assert code == 0 and doc["ok"] and doc["diam_sq"] == "1"
    code, doc = _run(capsys, "embed", "--sides", "1,0.6,0.6")
    assert code == 1 and doc["ok"] is False
    assert doc["deficit"] == pytest.approx(-0.28)


def test_embed_no_normalize_needs_unit_diameter(capsys):
    code, doc = _run(capsys, "embed", "--sides", "1,0.99,0.98", "--no-normalize")
    assert code == 0 and doc["ok"] and doc["diam_sq"] == "1"
    for sides in ("2,1.98,1.96", "0.99,0.98,0.97"):
        code = main(["embed", "--sides", sides, "--no-normalize"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "diameter must be 1 when normalize is off" in captured.err


def test_gadget_cli(capsys):
    code, doc = _run(capsys, "gadget", "--trials", "5000", "--seed", "3")
    assert code == 0 and doc["monochromatic"] == 0
    assert doc["trials"] == 5000 <= doc["attempts"]


def test_degen_cli(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--anchor", "0", "--restarts", "8", "--seed", "1")
    assert code == 0
    assert doc["value"] > 1.0 + 1e-4
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--restarts", "5", "--seed", "1")
    assert code == 0 and doc["overall"] == "degenerate-evidence"
    # an apex minimum past the refutation tolerance but short of the margin
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--margin", "0.5")
    assert code == 0 and doc["overall"] == "inconclusive"
    assert doc["anchors"][0]["verdict"] == "INCONCLUSIVE"


def test_degen_cli_reports_certificate(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--anchor", "0", "--restarts", "1")
    assert code == 0 and doc["certified"] is True
    assert 1.0 + 1e-4 < doc["lower"] <= doc["value"] <= doc["lower"] + 1e-8
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--restarts", "1")
    assert code == 0
    for anchor in doc["anchors"]:
        assert anchor["certified"] is True
        assert anchor["lower"] <= anchor["value"] + 1e-12


def test_degen_cli_reports_optimizer_counts(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--anchor", "0", "--restarts", "2", "--seed", "1")
    assert code == 0
    # one gradient per surrogate call; the polish adds value-only calls
    assert doc["evaluations"] > doc["gradients"] > 0


def test_degen_cli_rejects_zero_restarts(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    for extra in (["--anchor", "0"], []):
        code = main(["degen", "--input", str(tri), "-t", "1",
                     "--restarts", "0", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert "restarts" in captured.err and captured.out == ""


def test_degen_cli_rejects_bad_margin(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    for margin in ("nan", "inf", "-1"):
        code = main(["degen", "--input", str(tri), "-t", "1",
                     "--restarts", "1", "--margin", margin])
        captured = capsys.readouterr()
        assert code == 2
        assert "margin" in captured.err and captured.out == ""


def test_t5_witness_cli(capsys):
    code, doc = _run(capsys, "t5-witness", "--trials", "100", "--seed", "2")
    assert code == 0 and doc["failures"] == 0
    assert doc["max_coordinate"] < 0.5


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["diam", "--input", str(bad)])
    capsys.readouterr()
    assert code == 2
    code = main(["diam", "--input", str(tmp_path / "missing.json")])
    capsys.readouterr()
    assert code == 2
    code = main(["construct", "kk", "-n", "3"])
    capsys.readouterr()
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_values_exit_2(tmp_path, capsys):
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0.5, "x"]]}))
    code = main(["chrom", "--input", str(path)])
    capsys.readouterr()
    assert code == 2
    # neither truncated to an edge nor colored as an empty vertex set
    for doc, word in (({"n": 3, "edges": [[0, 1.5]]}, "1.5"),
                      ({"n": -2, "edges": []}, "negative")):
        path.write_text(json.dumps(doc))
        code = main(["chrom", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out and word in captured.err
    code = main(["t5-witness", "--trials", "1", "--dim", "3"])
    capsys.readouterr()
    assert code == 2
    fano = Hypergraph.make(3, [(0, 1)])
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(fano.to_json()))
    code = main(["chrom", "--input", str(hpath), "--max-colors", "-1"])
    capsys.readouterr()
    assert code == 2
    # zero denominators and non-finite coordinates are input errors, not
    # failed checks (exit 1) or NaN in the output
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"mode": "exact", "points": [["1/0", 0], [0, 0]]}))
    nan = tmp_path / "nan.json"
    nan.write_text('{"mode": "float", "points": [[NaN, 0], [0, 0], [1, 1]]}')
    # a tolerance that no distance meets, not even its own, printed no pairs
    bad_tol = []
    for k, tol in enumerate(("-1", "NaN", "Infinity")):
        bad_tol.append(tmp_path / f"tol{k}.json")
        bad_tol[-1].write_text('{"mode": "float", "points": [[0, 0], [1, 0], '
                               '[0, 3]], "tolerance": %s}' % tol)
    for argv, word in (
            (["diam", "--input", str(zero)], "1/0"),
            (["embed", "--sides", "1/0,1,1"], "1/0"),
            (["construct", "brick", "--lengths", "1/0,2"], "1/0"),
            (["construct", "simplex", "--sides", "1,1,1/0"], "1/0"),
            (["construct", "simplex", "--sides", "inf,1,1"], "inf"),
            # squares too large for a float
            (["construct", "simplex", "--vertices", "3", "--side", "1e200"],
             "side 1e+200"),
            (["construct", "simplex", "--sides", "1e200,1e200,1e200"],
             "side (0, 1)"),
            (["diam", "--input", str(nan)], "point 0 has a non-finite"),
            *((["diam", "--input", str(path)], "tolerance") for path in bad_tol),
            (["construct", "polygon", "-n", "5", "--circumradius", "nan"],
             "circumradius"),
            (["construct", "heptagon", "--circumradius", "inf"],
             "non-finite"),
            # a segment cannot hold the gadget triangle: dim 1 used to loop
            # forever and dim 0 to divide by zero
            (["gadget", "--dim", "1", "--trials", "10"], "dim >= 2"),
            (["gadget", "--dim", "0", "--trials", "10"], "dim >= 2"),
            (["gadget", "--trials", "-5"], "trials")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out and word in captured.err, argv


def test_diam_beyond_int64(tmp_path, capsys):
    # squared distances past 2^63 take the Python-int matrix; the JSON keeps
    # them as exact integers
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        PointSet.exact([[0, 0], [2 ** 31, 0], [0, 2 ** 32]]).to_json()))
    code, doc = _run(capsys, "diam", "--input", str(path))
    assert code == 0
    assert doc["diameter_sq"] == 23058430092136939520
    assert type(doc["diameter_sq"]) is int
    assert doc["pairs"] == [[1, 2]]


def test_float_overflow_exits_2(tmp_path, capsys):
    # squared distances past float range printed "diameter": Infinity (not
    # JSON) with no pairs, and found no copy of a triangle in itself
    line = tmp_path / "line.json"
    line.write_text(json.dumps(
        PointSet.from_floats([[1e200], [-1e200], [0.0]]).to_json()))
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(
        PointSet.from_floats([[0, 0], [1e200, 0], [0, 1e200]]).to_json()))
    for argv in (["diam", "--input", str(line)],
                 ["arrow", "--host", str(tri), "--pattern", str(tri),
                  "-r", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, argv
        assert "overflow a float" in captured.err, argv


def test_exact_diameter_past_float_range(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(PointSet.exact([[0], [10 ** 200]]).to_json()))
    code, doc = _run(capsys, "diam", "--input", str(path))
    assert code == 0
    assert doc["diameter"] == 1e200 and doc["diameter_sq"] == 10 ** 400
    code, doc = _run(capsys, "hyper", "--input", str(path))
    assert code == 0 and doc["edges"] == [[0, 1]]
    # a root past float range is an input error, not a traceback
    path.write_text(json.dumps(PointSet.exact([[0], [10 ** 400]]).to_json()))
    for cmd in ("diam", "hyper"):
        code = main([cmd, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "diameter overflows a float" in captured.err


def test_hypergraph_json_coerces_integer_vertices(tmp_path, capsys):
    # JSON writers elsewhere may emit 1.0 for 1; indices must come back ints
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0.0, 2.0]]}))
    code, doc = _run(capsys, "chrom", "--input", str(path))
    assert code == 0 and doc["chi"] == 2


def test_chrom_large_instance_guard(tmp_path, capsys):
    big = Hypergraph.make(61, [(i, i + 1) for i in range(60)])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big.to_json()))
    code = main(["chrom", "--input", str(path)])
    capsys.readouterr()
    assert code == 2


def test_verify_paper_fast_suite(capsys):
    code, doc = _run(capsys, "verify-paper", "--suite", "fast", "--seed", "0")
    assert code == 0 and doc["ok"]
    ids = [c["check_id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))  # every registered check exactly once
    ran = [c for c in doc["checks"] if c["status"] != "skip"]
    assert len(ran) >= 12
    assert all(c["status"] == "pass" for c in ran)
    assert sum(c["runtime_ms"] for c in ran) < 60000


def test_verify_paper_full_suite(capsys):
    code, doc = _run(capsys, "verify-paper", "--suite", "full", "--seed", "0")
    assert code == 0 and doc["ok"]
    assert doc["failed"] == 0
    assert doc["skipped"] == 1  # the no-guarantee check stays behind --slow


def test_verify_paper_seed_stability(capsys):
    code0, doc0 = _run(capsys, "verify-paper", "--suite", "fast", "--seed", "0")
    code1, doc1 = _run(capsys, "verify-paper", "--suite", "fast", "--seed", "12345")
    assert code0 == code1 == 0
    s0 = {c["check_id"]: c["status"] for c in doc0["checks"]}
    s1 = {c["check_id"]: c["status"] for c in doc1["checks"]}
    assert s0 == s1
