"""Text serialization for operators, states, and the CSV result schemas.

Everything is plain text with shortest round-trip float representation, so
files diff cleanly and load back bit-identically.  Parse errors carry
path:line locations.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bench import BenchRecord
from .collapse import ConvergenceReport
from .errors import ParameterError
from .jaynes_cummings import ScalingTable, ScanResult, ScanRow
from .operators import SparseSymmetricOperator, StateVector

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_state",
    "load_state",
    "save_trace_csv",
    "save_scan_csv",
    "read_scan_csv",
    "save_exponent_csv",
    "save_tow_summary_csv",
    "save_bench_csv",
    "save_eigenvalue_csv",
    "save_coefficient_csv",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def save_matrix(op: SparseSymmetricOperator, path: str | Path) -> None:
    """Write `dim nnz` then one `row col value` line per upper-triangle entry."""
    lines = [f"{op.dim} {op.nnz}"]
    for r, c, v in zip(op.rows, op.cols, op.vals):
        lines.append(f"{r} {c} {_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_error(path: str | Path, lineno: int, msg: str) -> ParameterError:
    return ParameterError(f"{path}:{lineno}: {msg}")


def load_matrix(path: str | Path) -> SparseSymmetricOperator:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise _parse_error(path, 1, "empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise _parse_error(path, 1, "expected header 'dim nnz'")
    try:
        dim, nnz = int(head[0]), int(head[1])
    except ValueError:
        raise _parse_error(path, 1, f"non-integer header {lines[0]!r}") from None
    rows, cols, vals = [], [], []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise _parse_error(path, lineno, f"expected 'row col value', got {raw!r}")
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise _parse_error(path, lineno, f"malformed entry {raw!r}") from None
        if r > c:
            raise _parse_error(
                path, lineno, f"lower-triangle entry ({r}, {c}) not allowed"
            )
        if r < 0 or c >= dim:
            raise _parse_error(path, lineno, f"entry ({r}, {c}) outside dim {dim}")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    if len(rows) != nnz:
        raise _parse_error(
            path, lineno, f"header promised {nnz} entries, found {len(rows)}"
        )
    try:
        return SparseSymmetricOperator(
            dim=dim,
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            vals=np.asarray(vals, dtype=np.float64),
        )
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def save_state(v: StateVector, path: str | Path) -> None:
    Path(path).write_text("\n".join(_fmt(a) for a in v.amps) + "\n")


def load_state(path: str | Path) -> StateVector:
    amps = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            amps.append(float(raw))
        except ValueError:
            raise _parse_error(path, lineno, f"malformed amplitude {raw!r}") from None
    if not amps:
        raise _parse_error(path, 1, "empty state file")
    return StateVector(np.asarray(amps, dtype=np.float64))


def save_trace_csv(report: ConvergenceReport, path: str | Path) -> None:
    """Per-iteration trace: iter,norm,residual,e1_0..,var_0.. (row 0 = input)."""
    n_ops = len(report.moments_trace[0].e1)
    header = (
        ["iter", "norm", "residual"]
        + [f"e1_{j}" for j in range(n_ops)]
        + [f"var_{j}" for j in range(n_ops)]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(report.iterations + 1):
            m = report.moments_trace[i]
            w.writerow(
                [i, _fmt(report.norm_trace[i]), _fmt(report.residual_trace[i])]
                + [_fmt(x) for x in m.e1]
                + [_fmt(x) for x in m.var]
            )


def save_scan_csv(result: ScanResult, path: str | Path) -> None:
    """Scan rows plus a leading comment holding the scan's metadata."""
    meta = (
        f"# n={result.n_molecules} q={_fmt(result.q)} c={_fmt(result.c)}"
        f" omega0={_fmt(result.omega0)} omega={_fmt(result.omega)}"
        f" method={result.method} kappa_center={_fmt(result.kappa_center)}"
    )
    with open(path, "w", newline="") as fh:
        fh.write(meta + "\n")
        w = csv.writer(fh)
        w.writerow(["kappa", "inversion", "scaled_energy", "converged"])
        for r in result.rows:
            w.writerow(
                [
                    _fmt(r.kappa),
                    _fmt(r.inversion),
                    _fmt(r.scaled_energy),
                    int(r.converged),
                ]
            )


def read_scan_csv(path: str | Path) -> ScanResult:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise _parse_error(path, 1, "missing scan metadata comment")
    meta: dict[str, str] = {}
    for token in lines[0].lstrip("#").split():
        if "=" not in token:
            raise _parse_error(path, 1, f"malformed metadata token {token!r}")
        key, val = token.split("=", 1)
        meta[key] = val
    try:
        n = int(meta["n"])
        q = float(meta["q"])
        c = float(meta["c"])
        omega0 = float(meta["omega0"])
        omega = float(meta["omega"])
        method = meta["method"]
        center = float(meta["kappa_center"])
    except (KeyError, ValueError) as exc:
        raise _parse_error(path, 1, f"bad metadata: {exc}") from exc
    reader = csv.reader(lines[1:])
    try:
        header = next(reader)
    except StopIteration:
        raise _parse_error(path, 2, "missing header row") from None
    if header != ["kappa", "inversion", "scaled_energy", "converged"]:
        raise _parse_error(path, 2, f"unexpected header {header!r}")
    rows = []
    for lineno, rec in enumerate(reader, start=3):
        if not rec:
            continue
        try:
            rows.append(
                ScanRow(
                    kappa=float(rec[0]),
                    inversion=float(rec[1]),
                    scaled_energy=float(rec[2]),
                    converged=bool(int(rec[3])),
                )
            )
        except (ValueError, IndexError):
            raise _parse_error(path, lineno, f"malformed scan row {rec!r}") from None
    return ScanResult(
        n_molecules=n,
        q=q,
        c=c,
        omega0=omega0,
        omega=omega,
        method=method,
        kappa_center=center,
        rows=rows,
    )


def save_exponent_csv(tables: Sequence[ScalingTable], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "slope", "ci95", "n_points"])
        for t in tables:
            w.writerow([_fmt(t.q), _fmt(t.slope), _fmt(t.ci95), t.n_points])


def save_tow_summary_csv(
    rows: Iterable[tuple[object, int, float, float, float]], path: str | Path
) -> None:
    """Rows of (target, refined_steps, final_residual, rayleigh, overlap_min)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["target", "refined_steps", "final_residual", "rayleigh", "overlap_min"]
        )
        for target, steps, residual, rayleigh, overlap_min in rows:
            w.writerow([target, steps, _fmt(residual), _fmt(rayleigh), _fmt(overlap_min)])


def save_bench_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Bench schema n,method,wall_time,iterations,timed_out,converged (flags are 0/1)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "method", "wall_time", "iterations", "timed_out", "converged"])
        for r in records:
            w.writerow(
                [r.n, r.method, _fmt(r.wall_time), r.iterations,
                 int(r.timed_out), int(r.converged)]
            )


def save_eigenvalue_csv(
    pairs: Iterable[tuple[int, float]], path: str | Path
) -> None:
    """Oracle output schema index,eigenvalue."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "eigenvalue"])
        for i, lam in pairs:
            w.writerow([i, _fmt(lam)])


def save_coefficient_csv(
    times: Sequence[float], probs: np.ndarray, path: str | Path
) -> None:
    """Competition trajectory: time,p_0..p_{m-1} with probabilities per step."""
    m = probs.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time"] + [f"p_{k}" for k in range(m)])
        for t, row in zip(times, probs):
            w.writerow([_fmt(t)] + [_fmt(p) for p in row])
