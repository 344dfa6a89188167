"""diamray benchmark: seeded closed-loop workloads with reference checks.

    python3 bench/run.py --workload exact-hyper --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from `src/`. One
client runs the workload's operation list pass after pass for about
`--seconds` seconds, checking every result against the benchmark's own
reference. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it runs untraced passes, then traced ones, and reports the
per-layer metrics. The last line of stdout is the result object; lines
before it carry provenance, sample counts and the known-defect probes.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402

LOADAVG_START = os.getloadavg()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8


def pin_threads() -> None:
    """One BLAS thread unless the caller chose a count; never above nproc.

    Must run before numpy is imported. Idle BLAS threads spinning on the
    optimizer's tiny matrices made verify-full slower and its CPU time
    noisy, so both sides of a comparison run with the same fixed count.
    """
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        try:
            count = min(max(int(value), 1), nproc)
        except ValueError:
            count = 1
        os.environ[var] = str(count)


def load_program():
    """Import diamray from this checkout's src/, never from site-packages."""
    init = SRC / "diamray" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init.relative_to(ROOT)} not found; run from "
                         "the root of a diamray checkout")
    sys.path.insert(0, str(SRC))
    import diamray

    if Path(diamray.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported diamray from {diamray.__file__}, "
                         f"not from {init}")
    sys.path.insert(0, str(HERE))
    import workloads

    return diamray, workloads


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_ms: dict = field(default_factory=dict)  # (index, label) -> time
    op_s: list = field(default_factory=list)  # (wall, cpu) s of each operation
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0  # process high-water mark when the pass ended


def _reason(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        return f"{type(exc).__name__}: {exc}"


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once; only the program's calls are timed."""
    res = Pass()
    ctx = {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, err = op.run(ctx), None
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            result, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.op = -1
        res.wall_s += t1 - t0
        res.cpu_s += c1 - c0
        res.op_s.append((t1 - t0, c1 - c0))
        verdict = err if err is not None else _reason(op.check, result)
        if op.split is not None and isinstance(verdict, dict):
            subs = verdict
            res.op_ms.update(((i, k), ms) for k, ms in op.split(result).items())
        else:
            subs = {op.label: verdict}
            res.op_ms[i, op.label] = (t1 - t0) * 1e3
        res.attempted += len(subs)
        res.failures += [(k, v) for k, v in subs.items() if v is not None]
        del result
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def run_for(ops, seconds: float, tracer=None, on_pass=None) -> list:
    """Passes until one more would take the program's time past `seconds`.

    Only the timed calls count, so the reference answers computed during
    the first pass do not cost a pass. At least one pass runs.

    Pass k runs pinned to the k-th CPU this process may use, in turn. On a
    shared VM one CPU at times ran 1.5x slower than the other, and the
    scheduler kept a process on the CPU it started on, so a whole run could
    be timed on the slow one. With each operation taken at its fastest over
    the passes, every CPU counts.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(run_pass(ops, tracer))
            if on_pass is not None:
                on_pass(passes[-1])
            spent = sum(p.wall_s for p in passes)
            if spent * (len(passes) + 1) / len(passes) > seconds:
                return passes
    finally:
        os.sched_setaffinity(0, cpus)


def warm_up(workload, seed, dm, ops):
    if workload == "verify-full":
        # the suite is one 7 s call; warm the same code on its small checks
        params = dm.verify.FULL
        for check_id, fn, _slow in dm.verify.CHECKS[:4]:
            fn(params, seed)
        return
    ctx = {}
    for op in ops[:3]:
        op.check(op.run(ctx))


def measure_setup(args) -> list:
    """Wall time from process start until a fresh process has imported
    numpy, scipy and diamray, built the inputs and run the warm-up.

    The fresh processes start on each CPU in turn, as the passes do."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for k in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # the child inherits it
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            if line.strip() != b"ready" or code != 0:
                raise SystemExit(f"bench: set-up process failed (exit {code})")
            times.append(elapsed)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def provenance(args, dm) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "pass_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "diamray": dm.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": LOADAVG_START,
        "clients": 1,
        "loop": "closed",
    }


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics. A single-rank quantile of verify-full's 14 checks
    jumps between two checks whose order depends on the seed."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def op_fastest(passes) -> list:
    """Each operation's fastest time in ms over the passes, as reported.

    Percentiles are taken over these, one value per operation. Every pass
    does the same work, and on a shared machine an operation is only ever
    slowed by others, so its fastest time is the steadiest estimate of that
    work (bench/README.md gives the spreads measured both ways).
    """
    keys = dict.fromkeys(k for p in passes for k in p.op_ms)
    return [min(p.op_ms[k] for p in passes if k in p.op_ms) for k in keys]


def fastest_pass(passes) -> tuple:
    """(wall, cpu) seconds of one pass with every operation, as the benchmark
    times it, at its fastest over the passes; see op_fastest."""
    per_op = list(zip(*(p.op_s for p in passes)))
    return (sum(min(w for w, _ in runs) for runs in per_op),
            sum(min(c for _, c in runs) for runs in per_op))


def end_to_end(passes, setup_times) -> dict:
    lat = op_fastest(passes)
    run_s, cpu_s = fastest_pass(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "cpu_s": cpu_s,
        "op_p50_ms": harrell_davis(lat, 0.5),
        "op_p90_ms": harrell_davis(lat, 0.9),
        # later passes repeat the same work, but heap fragmentation lets the
        # high-water mark creep up (440 -> 566 MB on exact-hyper's third
        # pass), so the count of passes that fit would leak into the metric
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def per_layer(plain, traced, traced_layers, check_ids) -> dict:
    """Layer metrics of the traced pass with the median time, so that its
    self times and unattributed time add up to its `trace.run_s`."""
    k = sorted(range(len(traced)), key=lambda i: traced[i].wall_s)[(len(traced) - 1) // 2]
    out = dict(traced_layers[k])
    check_ms = {label: ms for (_, label), ms in traced[k].op_ms.items()}
    for cid in check_ids:
        out[f"verify.{cid}_ms"] = check_ms.get(cid, 0.0)
    out["trace.run_s"] = traced[k].wall_s
    out["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                  / statistics.median(p.wall_s for p in plain) - 1.0)
    return out


def with_units(metrics: dict, trace: int) -> dict:
    """Attach to each metric the unit BENCHMARK.json declares for it; the
    metrics must be exactly the declared end-to-end or per-layer set."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}


def write_spans(args, ops, span_log) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"fields": ["pass", "name", "start", "end", "parent",
                                        "op", "measure"],
                             "ops": [op.label for op in ops]}) + "\n")
        for k, spans in enumerate(span_log):
            t0 = spans[0][1] if spans else 0.0
            for s in spans:
                fh.write(json.dumps([k, s[0], round(s[1] - t0, 9),
                                     round(s[2] - t0, 9), *s[3:]]) + "\n")
    return path


def emit(tag, obj):
    print(f"{tag}: {json.dumps(obj, sort_keys=True)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    dm, wl = load_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    ops = wl.build(args.workload, args.seed, dm)
    warm_up(args.workload, args.seed, dm, ops)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - T_PROCESS

    emit("provenance", provenance(args, dm))
    if args.trace == 0:
        setup_times = measure_setup(args)
        passes = run_for(ops, args.seconds)
        metrics = end_to_end(passes, setup_times)
        ctx = {}
        probes = {op.label: _reason(lambda op=op: op.check(op.run(ctx)))
                  for op in wl.probe_ops(args.workload, args.seed, dm)}
        emit("known_defects", {
            "defect": wl.PROBE_DEFECTS.get(args.workload),
            "probes": len(probes),
            "reproduced": sum(v is not None for v in probes.values()),
            "failing": {k: v for k, v in probes.items() if v is not None}})
        emit("samples", {"passes": len(passes), "ops_per_pass": passes[0].attempted,
                         "latency_samples": len(op_fastest(passes)),
                         "setup_runs": setup_times,
                         "own_setup_s": own_setup_s,
                         "run_s_all": [p.wall_s for p in passes]})
    else:
        import tracing

        plain = run_for(ops, args.seconds / 2)
        span_log, layers = [], []
        with tracing.Tracer() as tracer:
            def collect(p):
                layers.append(tracing.layer_metrics(tracer.spans, p.wall_s))
                span_log.append(list(tracer.spans))
                tracer.spans.clear()

            passes = run_for(ops, args.seconds / 2, tracer, collect)
        metrics = per_layer(plain, passes, layers, wl.VERIFY_CHECK_IDS)
        emit("samples", {"plain_passes": len(plain), "traced_passes": len(passes),
                         "spans_per_pass": [len(s) for s in span_log],
                         "span_file": str(write_spans(args, ops, span_log)
                                          .relative_to(ROOT))})
        passes = plain + passes
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": with_units(metrics, args.trace),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
