"""Timing harness for the collapse loop and the oracle eigensolvers.

Per-iteration collapse cost is measured by differencing two runs of the
same problem with different iteration caps, which cancels one-time setup
(matrix assembly, factorization scaffolding) out of the estimate.  All
timings run on the tridiagonal test Hamiltonian at coupling 0.1 with
target index N/10.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .collapse import CollapseConfig, collapse
from .errors import ParameterError
from .jaynes_cummings import JCParams, _tridiag_arrays, build_hamiltonian
from .operators import OperatorSet, StateVector
from .oracle import dense_eig, tridiag_eig
from .towing import TowingPlan, tow

__all__ = [
    "BenchRecord",
    "bench",
    "collapse_per_iteration",
    "tow_end_to_end",
    "oracle_all_timing",
    "oracle_single_timing",
    "loglog_slope",
]

_SUITES = ("collapse_scaling", "oracle_scaling")
_DENSE_LIMIT = 4096


@dataclass(frozen=True)
class BenchRecord:
    n: int
    method: str  # collapse | tow | oracle_all | oracle_single
    wall_time: float
    iterations: int
    timed_out: bool = False
    converged: bool = True  # fixed-budget timings have no convergence test


def _problem(n: int) -> tuple[JCParams, int]:
    p = JCParams(n_molecules=n, kappa=0.1, omega0=1.0, omega=2.0)
    return p, int(round(n / 10))


def _flag(record: BenchRecord, timeout: float) -> BenchRecord:
    if record.wall_time > timeout:
        return replace(record, timed_out=True)
    return record


def collapse_per_iteration(
    n: int, warm: int = 20, span: int = 100, repeats: int = 3
) -> BenchRecord:
    """Time `span` collapse iterations net of setup, best of `repeats`."""
    p, k = _problem(n)
    opset = OperatorSet([build_hamiltonian(p)])
    v0 = StateVector.basis(p.dim, k)
    # tol far below reach so both runs execute their full iteration budget
    short_cfg = CollapseConfig(dt=1.1, tol=1e-300, max_iter=warm)
    long_cfg = CollapseConfig(dt=1.1, tol=1e-300, max_iter=warm + span)
    collapse(opset, v0, short_cfg)  # warm caches before measuring
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        collapse(opset, v0, short_cfg)
        t1 = time.perf_counter()
        collapse(opset, v0, long_cfg)
        t2 = time.perf_counter()
        best = min(best, max((t2 - t1) - (t1 - t0), 1e-9))
    return BenchRecord(n=n, method="collapse", wall_time=best, iterations=span)


def tow_end_to_end(n: int, steps: int = 3, max_iter: int = 20000) -> BenchRecord:
    """Wall time of a whole ladder from zero coupling to 0.1 (reported, not asserted).

    The record's `converged` is the tow's own verdict; a ladder that stops
    on a failed rung is still timed and kept, flagged converged=False.
    """
    p, k = _problem(n)
    base = OperatorSet([build_hamiltonian(replace(p, kappa=0.0))])
    target = OperatorSet([build_hamiltonian(p)])
    plan = TowingPlan(base_set=base, target_set=target, steps=steps, targets=(k,))
    cfg = CollapseConfig(dt=1.1, tol=1e-10, max_iter=max_iter)
    t0 = time.perf_counter()
    result = tow(plan, k, cfg)
    wall = time.perf_counter() - t0
    iters = sum(r.iterations for r in result.per_step_reports)
    return BenchRecord(
        n=n, method="tow", wall_time=wall, iterations=max(iters, 1),
        converged=result.converged,
    )


def oracle_all_timing(n: int) -> BenchRecord:
    p, _ = _problem(n)
    if p.dim > _DENSE_LIMIT:
        raise ParameterError(f"oracle_all benchmark requires dim <= {_DENSE_LIMIT}")
    h = build_hamiltonian(p)
    t0 = time.perf_counter()
    dense_eig(h)
    return BenchRecord(
        n=n, method="oracle_all", wall_time=time.perf_counter() - t0, iterations=1
    )


def oracle_single_timing(n: int) -> BenchRecord:
    p, k = _problem(n)
    diag, off = _tridiag_arrays(p)
    t0 = time.perf_counter()
    tridiag_eig(diag, off, indices=[k])
    return BenchRecord(
        n=n, method="oracle_single", wall_time=time.perf_counter() - t0, iterations=1
    )


def bench(
    suite: str, n_list: Sequence[int], timeout: float = 300.0
) -> list[BenchRecord]:
    """Run one timing suite over ascending sizes; slow cells are flagged."""
    if suite not in _SUITES:
        raise ParameterError(f"unknown suite {suite!r}; pick one of {_SUITES}")
    ns = list(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n_list must be strictly ascending")
    records: list[BenchRecord] = []
    for n in ns:
        if suite == "collapse_scaling":
            records.append(_flag(collapse_per_iteration(n), timeout))
            records.append(_flag(tow_end_to_end(n), timeout))
        else:
            records.append(_flag(oracle_all_timing(n), timeout))
            records.append(_flag(oracle_single_timing(n), timeout))
    return records


def loglog_slope(
    records: Sequence[BenchRecord], method: str, per_iteration: bool = False
) -> float:
    """OLS slope of log(time) against log(n) for one method's records."""
    chosen = [r for r in records if r.method == method and not r.timed_out]
    if len(chosen) < 2:
        raise ParameterError(f"need at least 2 records for method {method!r}")
    xs = np.log([r.n for r in chosen])
    ys = np.log(
        [
            r.wall_time / r.iterations if per_iteration else r.wall_time
            for r in chosen
        ]
    )
    return float(np.polyfit(xs, ys, 1)[0])
