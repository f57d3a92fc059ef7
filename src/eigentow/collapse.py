"""Semi-implicit Crank-Nicolson integration of the nonlinear collapse dynamics.

Each step solves the trapezoidal system

    (I - (dt/2) B(m_lhs)) v' = (I + (dt/2) B(m)) v,

where B is the negative-semidefinite collapse generator, so the left-hand
matrix A = I + (dt/2) sum_j [(O_j - e1_j)^2 + var_j] is symmetric positive
definite for every dt > 0.  The zeroth-order mode freezes the moments over
the step (m_lhs = m); the first-order mode advances e1 and e2 by their
leading-order drift, and var = max(e2 - e1^2, 0), before forming the
implicit side.

For one operator H the matrix factors over the complex numbers:

    A = (dt/2) [(H - e1)^2 + s^2] = (dt/2) (H - e1 - i s)(H - e1 + i s),

with s^2 = var + 2/dt, so A^-1 r = (2 / (dt s)) Im[(H - e1 - i s)^-1 r] for
real r.  One complex solve with H's bandwidth b (LAPACK zgtsv for b = 1,
zgbsv otherwise; a complex sparse LU above _SHIFTED_BAND_LIMIT) replaces a
real solve with bandwidth 2b, and H^2 is never formed.  Sets of two or more
operators do not factor this way; they assemble A from the cached squares
and solve it with banded Cholesky (solveh_banded), or with a real sparse LU
once the squares are wider than _BAND_LIMIT.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateStateError, ParameterError
from .operators import Moments, OperatorSet, StateVector

__all__ = ["CollapseConfig", "ConvergenceReport", "cn_step", "collapse"]

# Widest bands sent to LAPACK's banded solvers rather than a sparse LU.  On
# full bands the banded solve is faster at every width measured (up to 128);
# on a tridiagonal band plus one far diagonal the sparse LU overtakes it near
# these widths at dim 4000 (complex shifted between 64 and 96; SPD between
# 128 and 192) and later at dim 64000.
_SHIFTED_BAND_LIMIT = 64  # bandwidth of H, one-operator complex path
_BAND_LIMIT = 128  # bandwidth of the summed squares, multi-operator SPD path
# residual-plateau window for the degenerate-subspace warning
_STAGNATION_WINDOW = 1000
_STAGNATION_RATIO = 0.999


@dataclass
class CollapseConfig:
    dt: float = 1.1
    tol: float = 1e-10
    max_iter: int = 100000
    expectation_order: str = "zeroth"
    renormalize_every_step: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.tol <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.expectation_order not in ("zeroth", "first"):
            raise ParameterError(
                f"expectation_order must be 'zeroth' or 'first', "
                f"got {self.expectation_order!r}"
            )


@dataclass
class ConvergenceReport:
    """Full per-iteration record of one collapse run.

    Index 0 of every trace describes the initial state; index i the state
    after step i.  norm_trace holds squared norms before renormalization,
    so the per-step contraction stays visible in the renormalizing mode.
    """

    iterations: int
    residual_trace: np.ndarray
    norm_trace: np.ndarray
    moments_trace: list[Moments]
    converged: bool
    wall_time: float
    warnings: list[str] = field(default_factory=list)


class _Evaluation(NamedTuple):
    norm2: float
    m: Moments
    bv: np.ndarray
    ov: list[np.ndarray]
    o2v: list[np.ndarray]
    residual: float


def _evaluate(opset: OperatorSet, x: np.ndarray) -> _Evaluation:
    n = float(x @ x)
    if n == 0.0:
        raise DegenerateStateError("collapse state has zero norm")
    ov = []
    o2v = []
    e1 = np.empty(len(opset))
    e2 = np.empty(len(opset))
    for j, op in enumerate(opset):
        oj = op.matvec(x)
        ov.append(oj)
        o2v.append(op.matvec(oj))
        e1[j] = (x @ oj) / n
        e2[j] = (oj @ oj) / n
    var = np.maximum(e2 - e1 * e1, 0.0)
    bv = -float(e2.sum()) * x
    for j in range(len(opset)):
        bv += 2.0 * e1[j] * ov[j] - o2v[j]
    residual = float(np.linalg.norm(bv)) / np.sqrt(n)
    return _Evaluation(n, Moments(e1=e1, e2=e2, var=var), bv, ov, o2v, residual)


def _advanced_moments(ev: _Evaluation, dt: float) -> Moments:
    """First-order drift of the moments along the collapse flow."""
    drift1 = 2.0 * dt * np.array([o @ ev.bv for o in ev.ov]) / ev.norm2
    drift2 = 2.0 * dt * np.array([o @ ev.bv for o in ev.o2v]) / ev.norm2
    e1 = ev.m.e1 + drift1
    e2 = ev.m.e2 + drift2
    return Moments(e1=e1, e2=e2, var=np.maximum(e2 - e1 * e1, 0.0))


def _general_band(upper: np.ndarray) -> np.ndarray:
    """Complex (b, b) general band form ab[b + i - j, j] from upper banded storage."""
    b, dim = upper.shape[0] - 1, upper.shape[1]
    ab = np.zeros((2 * b + 1, dim), dtype=np.complex128)
    ab[: b + 1] = upper
    for k in range(1, b + 1):
        ab[b + k, : dim - k] = upper[b - k, k:]
    return ab


class _Stepper:
    """Per-run solver with precomputed structure for the implicit system."""

    def __init__(self, opset: OperatorSet, dt: float):
        self.opset = opset
        self.dt = dt
        self.single = len(opset) == 1
        if self.single:
            op = opset.ops[0]
            self.band = op.bandwidth
            self.banded = self.band <= _SHIFTED_BAND_LIMIT
            if self.banded:
                # off-diagonals stay fixed; each step rewrites the diagonal row
                self.ab = _general_band(op.upper_banded())
                self.diag = self.ab[self.band].real.copy()
            else:
                self.h = op.csr.astype(np.complex128).tocsc()
                self.identity = sp.identity(opset.dim, dtype=np.complex128, format="csc")
            return
        squares = opset.squares
        self.band = max(
            max(op.bandwidth for op in opset.ops),
            max(sq.bandwidth for sq in squares),
        )
        self.banded = self.band <= _BAND_LIMIT
        if self.banded:
            u = self.band
            self.s2_band = sum(sq.upper_banded(u) for sq in squares)
            self.o_bands = np.stack([op.upper_banded(u) for op in opset.ops])
        else:
            self.identity = sp.identity(opset.dim, format="csr")
            self.s2_sum = sum(sq.csr for sq in squares)

    def _solve_shifted(self, m: Moments, rhs: np.ndarray) -> np.ndarray:
        # A = (dt/2)[(H - e1)^2 + sigma^2] = (dt/2)(H - e1 - i sigma)(H - e1 + i sigma)
        sigma = float(np.sqrt(m.var[0] + 2.0 / self.dt))
        z = complex(m.e1[0], sigma)
        b = rhs.astype(np.complex128)
        if self.banded:
            self.ab[self.band] = self.diag - z
            y = sla.solve_banded(
                (self.band, self.band), self.ab, b, overwrite_b=True, check_finite=False
            )
        else:
            y = spla.splu((self.h - z * self.identity).tocsc()).solve(b)
        return (2.0 / (self.dt * sigma)) * y.imag

    def _solve_spd(self, m: Moments, rhs: np.ndarray) -> np.ndarray:
        dt = self.dt
        shift = 1.0 + 0.5 * dt * float((m.e1 * m.e1 + m.var).sum())
        if self.banded:
            ab = 0.5 * dt * self.s2_band - dt * np.tensordot(
                m.e1, self.o_bands, axes=(0, 0)
            )
            ab[self.band] += shift
            return sla.solveh_banded(ab, rhs, lower=False, check_finite=False)
        acc = shift * self.identity + 0.5 * dt * self.s2_sum
        for j, op in enumerate(self.opset):
            acc = acc - dt * m.e1[j] * op.csr
        return spla.splu(acc.tocsc()).solve(rhs)

    def solve(self, m: Moments, rhs: np.ndarray) -> np.ndarray:
        try:
            if self.single:
                return self._solve_shifted(m, rhs)
            return self._solve_spd(m, rhs)
        except Exception as exc:  # pragma: no cover - nonsingular by construction
            kind = "complex shifted" if self.single else "SPD"
            raise RuntimeError(
                f"implicit solve failed on a {kind} matrix that must be nonsingular "
                f"(dim={self.opset.dim}, band={self.band}, dt={self.dt}): {exc}"
            ) from exc


def _stop_if_non_finite(what: str, value: float, iteration: int) -> None:
    if not np.isfinite(value):
        raise DegenerateStateError(f"non-finite {what} ({value}) at iteration {iteration}")


def _take_step(
    stepper: _Stepper, x: np.ndarray, ev: _Evaluation, cfg: CollapseConfig
) -> tuple[np.ndarray, float]:
    """One trapezoidal step; returns the new state and its pre-renormalization norm^2."""
    rhs = x + 0.5 * cfg.dt * ev.bv
    m_lhs = ev.m if cfg.expectation_order == "zeroth" else _advanced_moments(ev, cfg.dt)
    x_new = stepper.solve(m_lhs, rhs)
    n_new = float(x_new @ x_new)
    if cfg.renormalize_every_step:
        if n_new == 0.0:
            raise DegenerateStateError("state collapsed to zero during a step")
        x_new = x_new / np.sqrt(n_new)
    return x_new, n_new


def cn_step(
    opset: OperatorSet, v: StateVector, cfg: CollapseConfig | None = None
) -> StateVector:
    """Single Crank-Nicolson step of the collapse dynamics."""
    cfg = cfg or CollapseConfig()
    ev = _evaluate(opset, v.amps)
    x_new, _ = _take_step(_Stepper(opset, cfg.dt), v.amps, ev, cfg)
    return StateVector(x_new)


def collapse(
    opset: OperatorSet, v0: StateVector, cfg: CollapseConfig | None = None
) -> tuple[StateVector, ConvergenceReport]:
    """Iterate cn_step until the residual |B v|/|v| drops below cfg.tol.

    Returns the final state and a report; report.converged is False when
    max_iter is exhausted first.  The caller decides how to proceed then.
    A non-finite residual or step norm (overflowing moments) raises
    DegenerateStateError naming the iteration.
    """
    cfg = cfg or CollapseConfig()
    t0 = time.perf_counter()
    x = v0.amps
    if cfg.renormalize_every_step:
        n0 = float(x @ x)
        if n0 == 0.0:
            raise DegenerateStateError("initial state has zero norm")
        x = x / np.sqrt(n0)
    stepper = _Stepper(opset, cfg.dt)
    ev = _evaluate(opset, x)
    _stop_if_non_finite("residual", ev.residual, 0)
    residual_trace = [ev.residual]
    norm_trace = [ev.norm2]
    moments_trace = [ev.m]
    warnings: list[str] = []
    converged = False
    iterations = 0
    stagnation_reported = False
    for i in range(1, cfg.max_iter + 1):
        x, n_new = _take_step(stepper, x, ev, cfg)
        _stop_if_non_finite("step norm^2", n_new, i)
        ev = _evaluate(opset, x)
        _stop_if_non_finite("residual", ev.residual, i)
        residual_trace.append(ev.residual)
        norm_trace.append(n_new)
        moments_trace.append(ev.m)
        iterations = i
        if ev.residual <= cfg.tol:
            converged = True
            break
        if (
            not stagnation_reported
            and i >= _STAGNATION_WINDOW
            and i % _STAGNATION_WINDOW == 0
            and residual_trace[i] > _STAGNATION_RATIO * residual_trace[i - _STAGNATION_WINDOW]
            and float(ev.m.var.max()) > cfg.tol
        ):
            warnings.append(
                f"residual plateau over {_STAGNATION_WINDOW} iterations with "
                f"nonzero variance at iteration {i}; possible degenerate eigenspace"
            )
            stagnation_reported = True
    report = ConvergenceReport(
        iterations=iterations,
        residual_trace=np.asarray(residual_trace),
        norm_trace=np.asarray(norm_trace),
        moments_trace=moments_trace,
        converged=converged,
        wall_time=time.perf_counter() - t0,
        warnings=warnings,
    )
    return StateVector(x), report
