"""CLI surface: subcommands, JSON round-trips, exit codes."""

import json

import pytest

from diamray import Hypergraph, PointSet
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


def test_construct_all_families(tmp_path, capsys):
    for argv in (
        ["construct", "kneser", "-n", "2", "--k", "2", "--r", "2"],
        ["construct", "simplex", "--vertices", "4", "--side", "1.0"],
        ["construct", "simplex", "--sides", "3,4,5"],
        ["construct", "polygon", "-n", "9"],
        ["construct", "brick", "--lengths", "1,2,3"],
        ["construct", "t5"],
        ["construct", "heptagon", "--part", "pattern"],
    ):
        code, doc = _run(capsys, *argv)
        assert code == 0
        PointSet.from_json(doc)  # must parse back


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


def test_gadget_cli(capsys):
    code, doc = _run(capsys, "gadget", "--trials", "5000", "--seed", "3")
    assert code == 0 and doc["monochromatic"] == 0


def test_degen_cli(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    from diamray import isosceles_apex_triangle
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--anchor", "0", "--restarts", "8", "--seed", "1")
    assert code == 0
    assert doc["value"] > 1.0 + 1e-4
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--restarts", "5", "--seed", "1")
    assert code == 0 and doc["overall"] == "degenerate-evidence"


def test_degen_cli_reports_optimizer_counts(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    from diamray import isosceles_apex_triangle
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    code, doc = _run(capsys, "degen", "--input", str(tri), "-t", "1",
                     "--anchor", "0", "--restarts", "2", "--seed", "1")
    assert code == 0
    # one gradient per surrogate call; the polish adds value-only calls
    assert doc["evaluations"] > doc["gradients"] > 0


def test_degen_cli_rejects_zero_restarts(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    from diamray import isosceles_apex_triangle
    tri.write_text(json.dumps(isosceles_apex_triangle(160.0).to_json()))
    for extra in (["--anchor", "0"], []):
        code = main(["degen", "--input", str(tri), "-t", "1",
                     "--restarts", "0", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert "restarts" in captured.err and captured.out == ""


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
