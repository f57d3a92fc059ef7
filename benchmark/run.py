#!/usr/bin/env python3
"""eigentow benchmark: one command, three workloads, checks made apart from the program.

    python3 benchmark/run.py --workload collapse-target --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports eigentow from its
src/ directory.  The timed phase repeats whole rounds of the workload's
operations until --seconds have passed (at least one round); every output
is then checked against LAPACK and the exact coefficient flow.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0, per layer with --trace 1.  A detailed
record goes to benchmark/out/<workload>.json, and with --trace 1 the spans
to benchmark/out/<workload>.spans.jsonl.
"""
import sys
import time

_T0 = time.perf_counter()
sys.dont_write_bytecode = True  # leave the checkout as it was; every run imports alike

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    """Import eigentow from the checkout's src/, and nothing else of that name."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import eigentow
    except ImportError as exc:
        sys.exit(f"cannot import eigentow from {ROOT / 'src'}: {exc}")
    if Path(eigentow.__file__).resolve().parent != ROOT / "src" / "eigentow":
        sys.exit(f"eigentow was imported from {eigentow.__file__}, not from this checkout")
    return eigentow


def _median(values):
    return float(statistics.median(values))


def _run_rounds(workload, api, seconds, tracer=None):
    """Whole rounds of the workload's ops until `seconds` of them have run."""
    ops = workload.ops()
    rounds = []
    started = time.perf_counter()
    while True:
        outputs, parts = {}, dict.fromkeys(workload.parts, 0.0)
        t_round = time.perf_counter()
        with tracer.span("bench.round") if tracer else nullcontext():
            for op in ops:
                with tracer.span("bench.op", op.group) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    outputs[op.name] = op.run(api, outputs)
                    parts[op.part] += time.perf_counter() - t0
        wall = time.perf_counter() - t_round
        rounds.append({"wall_s": wall, "parts": parts, "kept": workload.keep(outputs)})
        if time.perf_counter() - started >= seconds:
            return rounds


def _summarise_parts(workload, rounds):
    return {p: _median([r["parts"][p] for r in rounds]) for p in workload.parts}


def _versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # --- set-up: imports once, then input build and warm-up three times
    eigentow = _import_program()
    import workloads  # also imports numpy, scipy and the reference code
    import tracing

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T0
    api = {name: getattr(eigentow, name)
           for name in ("collapse", "tow_many", "scan_kappa", "fit_critical_exponent")}
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        workload.build(args.seed)
        workload.warm_up(api)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + _median(builds)

    # --- timed phase
    rounds = _run_rounds(workload, api, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "versions": _versions(),
              "setup": {"import_s": import_s, "build_and_warm_up_s": builds},
              "rounds": [{"wall_s": r["wall_s"], "parts": r["parts"]} for r in rounds]}
    parts = _summarise_parts(workload, rounds)
    timed_rounds = len(rounds)
    if args.trace:
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        traced = _run_rounds(workload, instrumentation.api, args.seconds, tracer)
        instrumentation.restore()
        metrics = tracing.layer_metrics(tracer.spans, len(traced),
                                        sum(r["wall_s"] for r in traced))
        untraced_wall = _median([r["wall_s"] for r in rounds])
        traced_wall = _median([r["wall_s"] for r in traced])
        metrics.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        for w in workloads.WORKLOADS.values():
            for part in w.parts:
                metrics[f"bench.{part}"] = parts.get(part, 0.0)
        metrics.update(workload.counts(traced[-1]["kept"]))
        rounds = rounds + traced
    else:
        metrics = {
            "wall_s": _median([r["wall_s"] for r in rounds]),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    # --- checks, after the timed phase
    outcomes = []
    for r in rounds:
        outcomes += workload.check(r["kept"])
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    # an output the program reported as good but that fails its check is a wrong answer
    correct = all(o.check_ok for o in outcomes if o.succeeded)

    for o in outcomes[: attempted // len(rounds)]:
        status = "ok" if not o.failed else ("FAILED" if not o.succeeded else "WRONG")
        fault = f" [{o.fault}]" if o.fault else ""
        print(f"op {o.op}: {status}{fault}; {o.note}")
    for part, value in parts.items():
        print(f"part {part} {value:.4f} s (median of {timed_rounds} untraced round(s))")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in result.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} failed {failed} correct {correct}")

    record.update({"metrics": metrics, "parts": parts, "attempted": attempted, "failed": failed,
                   "correct": correct, "outcomes": [o.__dict__ for o in outcomes]})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tracing.write_spans(tracer.spans, OUT / f"{workload.name}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
