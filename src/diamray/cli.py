"""Command-line front end: constructions, analyses, and the batch verifier.

Every subcommand reads point sets / hypergraphs as JSON files and writes a
single JSON document to stdout (schema-versioned). Exit codes: 0 success or
all checks passed, 1 a check failed, 2 usage or input error. No network, no
interactive state; a fixed seed reproduces any run bit for bit under the
same BLAS thread count. The optimizer's low digits, and rarely whether it
draws a retry start, depend on that count (OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import chromatic_number, colorable
from .constructions import (
    brick,
    cube_corner_set,
    heptagon_config,
    kahn_kalai_set,
    kneser_points,
    realize,
    regular_polygon,
    regular_simplex,
    simplex_from_sides,
)
from .degeneracy import (
    DEFAULT_RESTARTS,
    SUPPORT_MARGIN,
    degeneracy_evidence,
    extension_problem,
    min_extension_diameter,
    star_witness_values,
)
from .geometry import PointSet, diameter
from .hypergraph import Hypergraph, diameter_hypergraph
from .ramsey import (
    EmbeddingConditionError,
    arrows,
    near_regular_simplex_embedding,
    obtuse_gadget_audit,
)
from .verify import verify_paper

import numpy as np


class CliError(Exception):
    """Usage or input problem; exits with status 2, as does a ValueError."""


def _emit(doc: dict, path: str | None = None) -> None:
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _load(cls, path: str):
    """A PointSet or Hypergraph read from the JSON document at path."""
    try:
        return cls.from_json(_load_json(path))
    except (ValueError, TypeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _lengths(text: str):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "/" in tok:
            vals.append(tok)
        else:
            try:
                vals.append(int(tok))
            except ValueError:
                vals.append(float(tok))
    if not vals:
        raise CliError("expected a comma-separated list of lengths")
    return vals


def _cmd_construct(args) -> int:
    family = args.family
    if family == "kk":
        ps = kahn_kalai_set(args.n)
    elif family == "kneser":
        ps = kneser_points(args.n, args.k, args.r)
    elif family == "simplex":
        if args.sides:
            ps = realize(simplex_from_sides(_lengths(args.sides)))
        else:
            ps = regular_simplex(args.vertices, args.side)
    elif family == "polygon":
        ps = regular_polygon(args.n, args.circumradius)
    elif family == "brick":
        ps = brick(_lengths(args.lengths))
    elif family == "t5":
        ps = cube_corner_set()
    elif family == "heptagon":
        host, pattern = heptagon_config(args.circumradius)
        ps = host if args.part == "host" else pattern
    else:
        raise CliError(f"unknown family {family}")
    _emit(ps.to_json(), args.output)
    return 0


def _cmd_diam(args) -> int:
    P = _load(PointSet, args.input)
    info = diameter(P)
    _emit({
        "schema": 1,
        "diameter": info.value,
        "diameter_sq": info.sq if isinstance(info.sq, (int, float)) else str(info.sq),
        "pairs": [list(p) for p in info.pairs],
        "near_misses": [list(p) for p in info.near_misses],
    }, args.output)
    return 0


def _cmd_hyper(args) -> int:
    P = _load(PointSet, args.input)
    H = diameter_hypergraph(P, args.r)
    _emit(H.to_json(), args.output)
    return 0


def _cmd_chrom(args) -> int:
    H = _load(Hypergraph, args.input)
    if H.n_vertices > 60 and not args.slow:
        raise CliError(
            f"{H.n_vertices} vertices: exact search may be very slow; "
            "pass --slow to run anyway")
    if args.max_colors is not None:
        witness = colorable(H, args.max_colors)
        doc = {"schema": 1, "colorable": witness is not None,
               "num_colors": args.max_colors,
               "witness": list(witness.colors) if witness else None}
        _emit(doc, args.output)
        return 0
    chi, witness = chromatic_number(H)
    _emit({"schema": 1, "chi": chi, "witness": list(witness.colors)},
          args.output)
    return 0


def _cmd_arrow(args) -> int:
    host = _load(PointSet, args.host)
    pattern = _load(PointSet, args.pattern)
    res = arrows(host, pattern, args.r)
    _emit({
        "schema": 1,
        "arrows": res.arrows,
        "colors": args.r,
        "num_copies": res.num_copies,
        "evading": list(res.evading.colors) if res.evading else None,
        "pattern_automorphisms": res.pattern_automorphisms,
    }, args.output)
    return 0


def _cmd_embed(args) -> int:
    spec = simplex_from_sides(_lengths(args.sides))
    try:
        witness = near_regular_simplex_embedding(
            spec, normalize=not args.no_normalize)
    except EmbeddingConditionError as exc:
        _emit({"schema": 1, "ok": False, "deficit": float(exc.deficit),
               "reason": str(exc)}, args.output)
        return 1
    _emit(witness.to_json(), args.output)
    return 0 if witness.ok else 1


def _cmd_gadget(args) -> int:
    rep = obtuse_gadget_audit(K=args.K, trials=args.trials, seed=args.seed,
                              dim=args.dim, legs=args.legs)
    doc = dict(rep)
    doc["schema"] = 1
    _emit(doc, args.output)
    return 0 if rep["ok"] else 1


def _cmd_degen(args) -> int:
    P = _load(PointSet, args.input)
    try:
        if args.anchor is not None:
            prob = extension_problem(P, args.anchor, args.t,
                                     ambient_dim=args.ambient_dim)
            res = min_extension_diameter(prob, restarts=args.restarts,
                                         seed=args.seed)
            diam = diameter(P).value
            _emit({
                "schema": 1,
                "anchor": args.anchor,
                "t": args.t,
                "diameter": diam,
                "value": res.value,
                "lower": res.lower,
                "certified": res.certified,
                "excess": res.value - diam,
                "feasibility_error": res.feasibility_error,
                "restart_values": list(res.restart_values),
                "evaluations": res.evaluations,
                "gradients": res.gradients,
                "simplex": res.simplex.to_json(),
            }, args.output)
        else:
            rep = degeneracy_evidence(P, args.t, margin=args.margin,
                                      restarts=args.restarts, seed=args.seed,
                                      ambient_dim=args.ambient_dim)
            rep["schema"] = 1
            _emit(rep, args.output)
    except RuntimeError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _cmd_t5_witness(args) -> int:
    values = star_witness_values(args.trials, args.seed, dim=args.dim)
    failures = int((values >= 0.5).sum())
    _emit({
        "schema": 1,
        "trials": args.trials,
        "dim": args.dim,
        "seed": args.seed,
        "failures": failures,
        "min_coordinate": float(values.min(initial=np.inf)),
        "max_coordinate": float(values.max(initial=-np.inf)),
        "ok": failures == 0,
    }, args.output)
    return 0 if failures == 0 else 1


def _cmd_verify_paper(args) -> int:
    reports = verify_paper(suite=args.suite, seed=args.seed, slow=args.slow)
    failed = [r for r in reports if r.status == "fail"]
    _emit({
        "schema": 1,
        "suite": args.suite,
        "seed": args.seed,
        "checks": [r.to_json() for r in reports],
        "passed": sum(r.status == "pass" for r in reports),
        "failed": len(failed),
        "skipped": sum(r.status == "skip" for r in reports),
        "ok": not failed,
    }, args.output)
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamray",
        description="Diameter graphs, exact hypergraph colorings, and "
                    "Euclidean Ramsey checks on finite point sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")

    c = sub.add_parser("construct", help="generate a named point-set family")
    fam = c.add_subparsers(dest="family", required=True)
    p = fam.add_parser("kk", help="partition point set in dimension C(2n,2)")
    p.add_argument("-n", type=int, required=True, help="even half-size of the ground set")
    out(p)
    p = fam.add_parser("kneser", help="characteristic vectors of n-subsets")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    out(p)
    p = fam.add_parser("simplex", help="regular simplex or one from side lengths")
    p.add_argument("--vertices", type=int, default=3)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--sides", help="comma-separated side lengths (upper triangle)")
    out(p)
    p = fam.add_parser("polygon", help="regular n-gon")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--circumradius", type=float, default=1.0)
    out(p)
    p = fam.add_parser("brick", help="box vertices from side lengths")
    p.add_argument("--lengths", required=True, help="comma-separated lengths")
    out(p)
    p = fam.add_parser("t5", help="origin plus the six unit vectors")
    out(p)
    p = fam.add_parser("heptagon", help="regular heptagon host / triangle pattern")
    p.add_argument("--part", choices=("host", "pattern"), default="host")
    p.add_argument("--circumradius", type=float, default=1.0)
    out(p)

    p = sub.add_parser("diam", help="diameter and attaining pairs")
    p.add_argument("--input", required=True)
    out(p)

    p = sub.add_parser("hyper", help="r-uniform diameter hypergraph")
    p.add_argument("--input", required=True)
    p.add_argument("-r", type=int, default=2)
    out(p)

    p = sub.add_parser("chrom", help="exact chromatic number or r-colorability")
    p.add_argument("--input", required=True)
    p.add_argument("--max-colors", type=int)
    p.add_argument("--slow", action="store_true",
                   help="allow exact search on large instances")
    out(p)

    p = sub.add_parser("arrow", help="decide host -> (pattern) with r colors")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("-r", type=int, required=True)
    out(p)

    p = sub.add_parser("embed", help="simplex-product embedding witness")
    p.add_argument("--sides", required=True,
                   help="comma-separated side lengths (upper triangle)")
    p.add_argument("--no-normalize", action="store_true",
                   help="sides are already scaled to diameter 1")
    out(p)

    p = sub.add_parser("gadget", help="mod-8 residue coloring audit")
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--legs", type=float, default=None,
                   help="override the audited isosceles legs (base stays 2)")
    out(p)

    p = sub.add_parser("degen", help="degeneracy evidence via extension search")
    p.add_argument("--input", required=True)
    p.add_argument("-t", type=int, required=True, help="simplex dimension")
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=SUPPORT_MARGIN)
    p.add_argument("--ambient-dim", type=int, default=None)
    out(p)

    p = sub.add_parser("t5-witness", help="far-pair witnesses on random tetrahedra")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=9)
    out(p)

    p = sub.add_parser("verify-paper", help="run the registered verification checks")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slow", action="store_true",
                   help="include checks with no runtime guarantee "
                        "(the large chromatic refutation can run for hours)")
    out(p)

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "diam": _cmd_diam,
    "hyper": _cmd_hyper,
    "chrom": _cmd_chrom,
    "arrow": _cmd_arrow,
    "embed": _cmd_embed,
    "gadget": _cmd_gadget,
    "degen": _cmd_degen,
    "t5-witness": _cmd_t5_witness,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    # the library raises ValueError on bad input; `embed` reports its
    # EmbeddingConditionError as a result instead
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
