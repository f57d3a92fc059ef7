"""Command-line front end.

Exit codes: 0 success, 1 numerical failure (non-convergence, solver
breakdown), 2 usage or input-file problems.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import bench, loglog_slope
from .coeffsim import CoefficientState, coeff_simulate, probabilities
from .collapse import CollapseConfig, collapse
from .errors import ContractViolationError, ParameterError
from .io import (
    load_matrix,
    load_state,
    save_bench_csv,
    save_coefficient_csv,
    save_eigenvalue_csv,
    save_exponent_csv,
    save_matrix,
    save_scan_csv,
    save_state,
    save_tow_summary_csv,
    save_trace_csv,
    read_scan_csv,
)
from .jaynes_cummings import (
    JCParams,
    build_hamiltonian,
    fit_critical_exponent,
    scan_kappa,
)
from .operators import OperatorSet, SparseSymmetricOperator, StateVector
from .oracle import _resolve_indices, dense_eig, rayleigh_residual, tridiag_eig
from .towing import TowingPlan, tow_many

__all__ = ["main"]


def _initial_state(spec: str, dim: int) -> StateVector:
    kind, _, rest = spec.partition(":")
    if kind == "basis":
        return StateVector.basis(dim, int(rest))
    if kind == "file":
        v = load_state(rest)
        if len(v) != dim:
            raise ParameterError(
                f"state length {len(v)} does not match operator dimension {dim}"
            )
        return v
    if kind == "random":
        rng = np.random.default_rng(int(rest))
        x = rng.standard_normal(dim)
        return StateVector(x / np.linalg.norm(x))
    raise ParameterError(
        f"bad --init {spec!r}; expected basis:K, file:PATH, or random:SEED"
    )


def _collapse_config(args: argparse.Namespace) -> CollapseConfig:
    return CollapseConfig(
        dt=args.dt,
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _cmd_collapse(args: argparse.Namespace) -> int:
    opset = OperatorSet([load_matrix(p) for p in args.op])
    v0 = _initial_state(args.init, opset.dim)
    final, report = collapse(opset, v0, _collapse_config(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_trace_csv(report, out / "trace.csv")
    save_state(final, out / "final_state.txt")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"collapse: iterations={report.iterations}"
        f" residual={report.residual_trace[-1]:.3e} converged={report.converged}"
    )
    return 0 if report.converged else 1


def _cmd_tow(args: argparse.Namespace) -> int:
    base = OperatorSet([load_matrix(p) for p in args.base])
    target = OperatorSet([load_matrix(p) for p in args.target])
    targets: list = list(args.target_index or [])
    for path in args.target_state or []:
        targets.append(load_state(path))
    if not targets:
        raise ParameterError("no targets given; use --target-index or --target-state")
    plan = TowingPlan(
        base_set=base, target_set=target, steps=args.steps, targets=tuple(targets)
    )
    results = tow_many(plan, _collapse_config(args), refine_tol=args.refine)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    ok = True
    for pos, res in enumerate(results):
        tag = f"{pos}_{res.target_id}"
        for w in res.warnings:
            print(f"warning[{tag}]: {w}", file=sys.stderr)
        if res.error is not None:
            print(f"error[{tag}]: {res.error}", file=sys.stderr)
            ok = False
            continue
        save_state(res.final_state, out / f"state_{tag}.txt")
        for step, rep in enumerate(res.per_step_reports):
            save_trace_csv(rep, out / f"trace_{tag}_step{step}.csv")
        residual = float(res.per_step_reports[-1].residual_trace[-1])
        rayleigh = max(rayleigh_residual(op, res.final_state)[1] for op in target)
        overlap_min = min(res.per_step_overlaps) if res.per_step_overlaps else 1.0
        rows.append((res.target_id, res.refined_steps, residual, rayleigh, overlap_min))
        ok = ok and res.converged
    save_tow_summary_csv(rows, out / "summary.csv")
    print(f"tow: {len(rows)}/{len(results)} targets completed, converged={ok}")
    return 0 if ok else 1


def _jc_params(args: argparse.Namespace, kappa: float = 0.0) -> JCParams:
    return JCParams(
        n_molecules=args.n,
        kappa=kappa,
        omega0=args.omega0,
        omega=args.omega,
        c=args.c,
    )


def _cmd_jc_build(args: argparse.Namespace) -> int:
    op = build_hamiltonian(_jc_params(args, kappa=args.kappa))
    save_matrix(op, args.out)
    print(f"jc build: dim={op.dim} nnz={op.nnz} -> {args.out}")
    return 0


def _cmd_jc_scan(args: argparse.Namespace) -> int:
    params = _jc_params(args)
    if args.kappa_max == "auto":
        kappas = None
    else:
        kmax = float(args.kappa_max)
        if kmax <= 0:
            raise ParameterError("--kappa-max must be positive or 'auto'")
        kappas = np.linspace(0.0, kmax, args.points)
    result = scan_kappa(
        params, args.q, kappas=kappas, method=args.method, points=args.points
    )
    save_scan_csv(result, args.out)
    converged = result.converged_rows()
    if not converged:
        print("jc scan: no converged rows", file=sys.stderr)
        return 1
    best = result.max_row()
    print(
        f"jc scan: n={args.n} q={args.q} rows={len(result.rows)}"
        f" max_inversion={best.inversion:.6f} at kappa={best.kappa:.6f}"
    )
    return 0


def _cmd_jc_exponent(args: argparse.Namespace) -> int:
    results = [read_scan_csv(p) for p in args.scans]
    table = fit_critical_exponent(results, q=args.q)
    save_exponent_csv([table], args.out)
    print(
        f"jc exponent: q={table.q} slope={table.slope:.4f}"
        f" ci95={table.ci95:.4f} n_points={table.n_points}"
    )
    return 0


def _tridiag_parts(op: SparseSymmetricOperator) -> tuple[np.ndarray, np.ndarray]:
    if op.bandwidth > 1:
        raise ParameterError("--tridiag requires a matrix with bandwidth <= 1")
    band = op.upper_banded(1)
    return band[1], band[0, 1:]


def _cmd_oracle_eig(args: argparse.Namespace) -> int:
    op = load_matrix(args.matrix)
    indices = _resolve_indices(op.dim, args.indices)
    if args.tridiag:
        diag, off = _tridiag_parts(op)
        dec = tridiag_eig(diag, off, indices=indices)
    else:
        full = dense_eig(op)
        dec = type(full)(
            eigenvalues=full.eigenvalues[indices],
            eigenvectors=full.eigenvectors[:, indices],
        )
    save_eigenvalue_csv(zip(indices, dec.eigenvalues), args.out)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.out).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for col, idx in enumerate(indices):
        save_state(dec.vector(col), out_dir / f"state_{idx}.txt")
    print(f"oracle eig: wrote {len(indices)} eigenpairs to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    records = bench(args.suite, args.ns, timeout=args.timeout)
    save_bench_csv(records, args.out)
    methods = sorted({r.method for r in records})
    for method in methods:
        per_iter = method == "collapse"
        try:
            slope = loglog_slope(records, method, per_iteration=per_iter)
        except ParameterError:
            continue
        kind = "per-iteration" if per_iter else "end-to-end"
        print(f"bench: {method} {kind} log-log slope = {slope:.3f}")
    for r in records:
        if not r.converged:
            print(
                f"bench: {r.method} n={r.n} did not converge "
                f"({r.iterations} iterations, {r.wall_time:.3g} s)",
                file=sys.stderr,
            )
    if any(r.timed_out for r in records):
        print("bench: some cells exceeded the timeout and were flagged", file=sys.stderr)
        return 1
    return 0


def _parse_eigval_grid(text: str | None, m: int) -> list[list[float]]:
    if text is None:
        return [[float(k)] for k in range(m)]
    groups = [g for g in text.split(";") if g.strip()]
    return [[float(x) for x in g.replace(",", " ").split()] for g in groups]


def _cmd_coeffsim(args: argparse.Namespace) -> int:
    eigvals = _parse_eigval_grid(args.eigvals, len(args.probs))
    cs = CoefficientState.from_probabilities(eigvals, args.probs)
    traj = coeff_simulate(cs, args.dt, args.t_end)
    times = [s.time for s in traj]
    probs = np.array([probabilities(s) for s in traj])
    save_coefficient_csv(times, probs, args.out)
    winner = int(np.argmax(probs[-1]))
    final = ", ".join(f"p_{k}={p:.6f}" for k, p in enumerate(probs[-1]))
    print(f"coeffsim: winner=state {winner} at t={times[-1]:g} ({final})")
    return 0


def _add_collapse_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", type=float, default=1.1, help="time step (default 1.1)")
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.add_argument("--max-iter", type=int, default=100000)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigentow",
        description=(
            "Approximate targeted eigenstates of commuting symmetric operators "
            "by integrating decoherence-style collapse dynamics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collapse", help="relax one state to a nearby eigenstate")
    p.add_argument("--op", action="append", required=True, help="matrix file (repeatable)")
    p.add_argument(
        "--init",
        default="basis:0",
        help="initial state: basis:K, file:PATH, or random:SEED",
    )
    _add_collapse_flags(p)
    p.add_argument("--out-dir", default=".", help="directory for trace and state files")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("tow", help="follow eigenstates along an operator ladder")
    p.add_argument("--base", action="append", required=True, help="base matrix file")
    p.add_argument("--target", action="append", required=True, help="target matrix file")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--target-index", type=int, nargs="+", help="basis-state targets")
    p.add_argument("--target-state", action="append", help="state-file target")
    p.add_argument("--refine", type=float, default=None, help="ladder agreement tolerance")
    _add_collapse_flags(p)
    p.add_argument("--out-dir", default=".", help="directory for per-target outputs")
    p.set_defaults(func=_cmd_tow)

    jc = sub.add_parser("jc", help="molecules-plus-field test problem")
    jsub = jc.add_subparsers(dest="jc_command", required=True)

    p = jsub.add_parser("build", help="write the tridiagonal Hamiltonian")
    p.add_argument("--n", type=int, required=True, help="number of molecules (even)")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.0)
    p.add_argument("--c", type=float, default=None, help="conserved number (default j)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_jc_build)

    p = jsub.add_parser("scan", help="two-pass inversion scan over couplings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True, help="spectrum ratio k/N")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.0)
    p.add_argument("--c", type=float, default=None)
    p.add_argument(
        "--kappa-max",
        default="auto",
        help="'auto' for the refocused window, or a number for [0, kappa_max]",
    )
    p.add_argument("--points", type=int, default=61)
    p.add_argument("--method", choices=("towing", "oracle"), default="towing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_jc_scan)

    p = jsub.add_parser("exponent", help="fit the finite-size scaling slope")
    p.add_argument("--scans", nargs="+", required=True, help="scan CSV files")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_jc_exponent)

    oracle = sub.add_parser("oracle", help="brute-force reference eigensolver")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("eig", help="full or selected eigendecomposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tridiag", action="store_true", help="use the tridiagonal path")
    p.add_argument("--indices", type=int, nargs="+", help="eigenvalue indices (default all)")
    p.add_argument("--out", required=True, help="eigenvalue CSV path")
    p.add_argument("--out-dir", default=None, help="directory for eigenvector files")
    p.set_defaults(func=_cmd_oracle_eig)

    p = sub.add_parser("bench", help="timing suites")
    p.add_argument(
        "--suite", choices=("collapse_scaling", "oracle_scaling"), required=True
    )
    p.add_argument("--ns", type=int, nargs="+", required=True, help="ascending sizes")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("coeffsim", help="eigenbasis coefficient competition")
    p.add_argument("--probs", type=float, nargs="+", required=True)
    p.add_argument(
        "--eigvals",
        default=None,
        help="semicolon-separated eigenvalue tuples, e.g. '0;1;2' (default indices)",
    )
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coeffsim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ContractViolationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
