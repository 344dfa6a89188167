"""Command-line front end: constructions, analyses, and the batch verifier.

Every subcommand reads point sets / hypergraphs as JSON files and writes a
single JSON document to stdout (schema-versioned). Exit codes: 0 success or
all checks passed, 1 a check failed or stdout closed early, 2 usage or
input error. No network, no interactive state; a fixed seed reproduces any
run bit for bit under the same BLAS thread count. The optimizer's low
digits, and rarely whether it draws a retry start, depend on that count
(OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import json
import os
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
    STAR_DIM,
    SUPPORT_MARGIN,
    degeneracy_evidence,
    extension_problem,
    min_extension_diameter,
    star_witness_values,
)
from .geometry import PointSet, _scalar_to_json, diameter
from .hypergraph import Hypergraph, diameter_hypergraph
from .ramsey import (
    EmbeddingConditionError,
    arrows,
    near_regular_simplex_embedding,
    obtuse_gadget_audit,
)
from .verify import verify_paper


class CliError(Exception):
    """Usage or input problem; exits with status 2, as does a ValueError."""


def _emit(doc: dict, path: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise CliError(f"result is not valid JSON: {exc}") from exc
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}") from exc
    else:
        print(text)
        # a reader that closed the pipe raises here, not at exit
        sys.stdout.flush()


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


def _simplex(args):
    if args.sides:
        return realize(simplex_from_sides(_lengths(args.sides)))
    return regular_simplex(args.vertices, args.side)


def _heptagon(args):
    host, pattern = heptagon_config(args.circumradius)
    return host if args.part == "host" else pattern


def _cmd_construct(args) -> dict:
    return args.build(args).to_json()


def _cmd_diam(args) -> dict:
    info = diameter(_load(PointSet, args.input))
    return {
        "schema": 1,
        "diameter": info.value,
        "diameter_sq": _scalar_to_json(info.sq),
        "pairs": [list(p) for p in info.pairs],
        "near_misses": [list(p) for p in info.near_misses],
    }


def _cmd_hyper(args) -> dict:
    return diameter_hypergraph(_load(PointSet, args.input), args.r).to_json()


def _cmd_chrom(args) -> dict:
    H = _load(Hypergraph, args.input)
    if H.n_vertices > 60 and not args.slow:
        raise CliError(
            f"{H.n_vertices} vertices: exact search may be very slow; "
            "pass --slow to run anyway")
    if args.max_colors is not None:
        witness = colorable(H, args.max_colors)
        return {"schema": 1, "colorable": witness is not None,
                "num_colors": args.max_colors,
                "witness": list(witness.colors) if witness else None}
    chi, witness = chromatic_number(H)
    return {"schema": 1, "chi": chi, "witness": list(witness.colors)}


def _cmd_arrow(args) -> dict:
    host = _load(PointSet, args.host)
    pattern = _load(PointSet, args.pattern)
    res = arrows(host, pattern, args.r)
    return {
        "schema": 1,
        "arrows": res.arrows,
        "colors": args.r,
        "num_copies": res.num_copies,
        "evading": list(res.evading.colors) if res.evading else None,
        "pattern_automorphisms": res.pattern_automorphisms,
    }


def _cmd_embed(args) -> dict:
    spec = simplex_from_sides(_lengths(args.sides))
    try:
        return near_regular_simplex_embedding(
            spec, normalize=not args.no_normalize).to_json()
    except EmbeddingConditionError as exc:
        return {"schema": 1, "ok": False, "deficit": float(exc.deficit),
                "reason": str(exc)}


def _cmd_gadget(args) -> dict:
    rep = obtuse_gadget_audit(K=args.K, trials=args.trials, seed=args.seed,
                              dim=args.dim, legs=args.legs)
    return {**rep, "schema": 1}


def _cmd_degen(args) -> dict:
    P = _load(PointSet, args.input)
    try:
        if args.anchor is None:
            rep = degeneracy_evidence(P, args.t, margin=args.margin,
                                      restarts=args.restarts, seed=args.seed,
                                      ambient_dim=args.ambient_dim)
            return {**rep, "schema": 1}
        prob = extension_problem(P, args.anchor, args.t,
                                 ambient_dim=args.ambient_dim)
        res = min_extension_diameter(prob, restarts=args.restarts,
                                     seed=args.seed)
    except RuntimeError as exc:
        raise CliError(str(exc)) from exc
    diam = diameter(P).value
    return {
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
    }


def _cmd_t5_witness(args) -> dict:
    values = star_witness_values(args.trials, args.seed, dim=args.dim)
    failures = int((values >= 0.5).sum())
    return {
        "schema": 1,
        "trials": args.trials,
        "dim": args.dim,
        "seed": args.seed,
        "failures": failures,
        "min_coordinate": float(values.min()) if len(values) else None,
        "max_coordinate": float(values.max()) if len(values) else None,
        "ok": failures == 0,
    }


def _cmd_verify_paper(args) -> dict:
    reports = verify_paper(suite=args.suite, seed=args.seed, slow=args.slow)
    failed = sum(r.status == "fail" for r in reports)
    return {
        "schema": 1,
        "suite": args.suite,
        "seed": args.seed,
        "checks": [r.to_json() for r in reports],
        "passed": sum(r.status == "pass" for r in reports),
        "failed": failed,
        "skipped": sum(r.status == "skip" for r in reports),
        "ok": not failed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamray",
        description="Diameter graphs, exact hypergraph colorings, and "
                    "Euclidean Ramsey checks on finite point sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output",
                        help="write JSON here instead of stdout")

    def leaf(subparsers, name, help, **defaults):
        """A command that writes one JSON document; `defaults` binds its
        handler (`run`) or its construct family's builder (`build`)."""
        p = subparsers.add_parser(name, help=help, parents=[output])
        p.set_defaults(**defaults)
        return p

    c = sub.add_parser("construct", help="generate a named point-set family")
    c.set_defaults(run=_cmd_construct)
    fam = c.add_subparsers(dest="family", required=True)
    p = leaf(fam, "kk", "partition point set in dimension C(2n,2)",
             build=lambda a: kahn_kalai_set(a.n))
    p.add_argument("-n", type=int, required=True, help="even half-size of the ground set")
    p = leaf(fam, "kneser", "characteristic vectors of n-subsets",
             build=lambda a: kneser_points(a.n, a.k, a.r))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = leaf(fam, "simplex", "regular simplex or one from side lengths",
             build=_simplex)
    p.add_argument("--vertices", type=int, default=3)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--sides", help="comma-separated side lengths (upper triangle)")
    p = leaf(fam, "polygon", "regular n-gon",
             build=lambda a: regular_polygon(a.n, a.circumradius))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--circumradius", type=float, default=1.0)
    p = leaf(fam, "brick", "box vertices from side lengths",
             build=lambda a: brick(_lengths(a.lengths)))
    p.add_argument("--lengths", required=True, help="comma-separated lengths")
    leaf(fam, "t5", "origin plus the six unit vectors",
         build=lambda a: cube_corner_set())
    p = leaf(fam, "heptagon", "regular heptagon host / triangle pattern",
             build=_heptagon)
    p.add_argument("--part", choices=("host", "pattern"), default="host")
    p.add_argument("--circumradius", type=float, default=1.0)

    p = leaf(sub, "diam", "diameter and attaining pairs", run=_cmd_diam)
    p.add_argument("--input", required=True)

    p = leaf(sub, "hyper", "r-uniform diameter hypergraph", run=_cmd_hyper)
    p.add_argument("--input", required=True)
    p.add_argument("-r", type=int, default=2)

    p = leaf(sub, "chrom", "exact chromatic number or r-colorability",
             run=_cmd_chrom)
    p.add_argument("--input", required=True)
    p.add_argument("--max-colors", type=int)
    p.add_argument("--slow", action="store_true",
                   help="allow exact search on large instances")

    p = leaf(sub, "arrow", "decide host -> (pattern) with r colors",
             run=_cmd_arrow)
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("-r", type=int, required=True)

    p = leaf(sub, "embed", "simplex-product embedding witness", run=_cmd_embed)
    p.add_argument("--sides", required=True,
                   help="comma-separated side lengths (upper triangle)")
    p.add_argument("--no-normalize", action="store_true",
                   help="sides are already scaled to diameter 1")

    p = leaf(sub, "gadget", "mod-8 residue coloring audit", run=_cmd_gadget)
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--legs", type=float, default=None,
                   help="override the audited isosceles legs (base stays 2)")

    p = leaf(sub, "degen", "degeneracy evidence via extension search",
             run=_cmd_degen)
    p.add_argument("--input", required=True)
    p.add_argument("-t", type=int, required=True, help="simplex dimension")
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=SUPPORT_MARGIN)
    p.add_argument("--ambient-dim", type=int, default=None)

    p = leaf(sub, "t5-witness", "far-pair witnesses on random tetrahedra",
             run=_cmd_t5_witness)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=STAR_DIM)

    p = leaf(sub, "verify-paper", "run the registered verification checks",
             run=_cmd_verify_paper)
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slow", action="store_true",
                   help="include the slow-flagged checks (the 2-color "
                        "refutation of H3 of Kneser(3,2,3))")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.run(args)
        _emit(doc, args.output)
    # the library raises ValueError on bad input; `embed` reports its
    # EmbeddingConditionError as a result instead
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (`| head`): on devnull the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # a document that carries a verdict exits 1 when the check failed
    return 1 if doc.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
