"""Semi-implicit (implicit-Euler) integration of the nonlinear collapse dynamics.

Each step solves

    (I - dt B(m)) v' = v,

where B is the negative-semidefinite collapse generator with the moments m
of the current state frozen over the step, so the matrix
A = I + dt sum_j [(O_j - e1_j)^2 + var_j] is symmetric positive definite for
every dt > 0.  The step is L-stable: an eigencomponent whose decay rate is
z/dt is multiplied by 1/(1 + z), which is monotone in z, so a step never
reorders the instantaneous decay rates and converges in tens of steps at the
default dt on the Jaynes-Cummings chain (28 to 33 from the low starts at
N = 4000 and 64000).

For one operator H the matrix factors over the complex numbers:

    A = dt [(H - e1)^2 + s^2] = dt (H - e1 - i s)(H - e1 + i s),

with s^2 = var + 1/dt, so A^-1 r = (1 / (dt s)) Im[(H - e1 - i s)^-1 r] for
real r.  One complex solve with H's bandwidth b (LAPACK zgtsv for b = 1,
zgbsv otherwise; a complex sparse LU above _SHIFTED_BAND_LIMIT) replaces a
real solve with bandwidth 2b, and H^2 is never formed.  The LAPACK routine
is fetched once per run and solves in place in buffers allocated once per
run; each step restores the band it overwrote and writes the diagonal of
H - e1 - i s into it.  Sets of two or more
operators do not factor this way.  They square O_j - c_j once per run, c_j
the e1_j of the first state, so that with d_j = e1_j - c_j each step's

    A = I + dt sum_j [(O_j - c_j)^2 - 2 d_j (O_j - c_j) + d_j^2 + var_j]

cancels no terms of size e1^2; it is solved with banded Cholesky
(solveh_banded), or a real sparse LU once the squares pass _BAND_LIMIT.
The moments and B v come from operators._generator; this module only steps.
The report names the solve path and the band, and totals the time spent
evaluating the generator and stepping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateStateError, ParameterError
from .operators import Moments, OperatorSet, StateVector, moments, operator_from_csr
from .operators import _generator

__all__ = ["CollapseConfig", "ConvergenceReport", "collapse", "implicit_step"]

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

    def __post_init__(self) -> None:
        for name in ("dt", "tol"):
            value = getattr(self, name)
            # written so that NaN fails too
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and positive, got {value}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class ConvergenceReport:
    """Full per-iteration record of one collapse run.

    Index 0 of every trace describes the initial state; index i the state
    after step i.  norm_trace holds squared norms before renormalization,
    so the per-step contraction stays visible.
    moments_trace holds (iterations + 1, n_ops) arrays.
    """

    iterations: int
    residual_trace: np.ndarray
    norm_trace: np.ndarray
    moments_trace: Moments
    converged: bool
    wall_time: float
    solve_path: str  # "complex gtsv", "complex gbsv", "complex splu", "spd banded" or "real splu"
    bandwidth: int  # of H for one operator, of the summed squares for several
    evaluate_s: float  # total time evaluating moments and B x
    solve_s: float  # total time in the implicit steps (solve and renormalization)
    warnings: list[str] = field(default_factory=list)


def _lu_band(upper: np.ndarray) -> np.ndarray:
    """Complex (b, b) LU band for zgbsv from upper banded storage.

    F-ordered (3b + 1, dim): rows b.. hold ab[2b + i - j, j] = a[i, j], and
    the first b rows are the zeroed room zgbsv needs for the LU's fill-in.
    """
    b, dim = upper.shape[0] - 1, upper.shape[1]
    ab = np.zeros((3 * b + 1, dim), dtype=np.complex128, order="F")
    ab[b : 2 * b + 1] = upper
    for k in range(1, b + 1):
        ab[2 * b + k, : dim - k] = upper[b - k, k:]
    return ab


class _Stepper:
    """Per-run solver with precomputed structure for the implicit system.

    centre holds the first state's e1; a multi-operator set squares O_j - centre_j.
    One banded operator fetches its LAPACK routine once and solves every
    step in buffers allocated here, restoring what the solve overwrote.
    """

    def __init__(self, opset: OperatorSet, dt: float, centre: np.ndarray):
        self.opset = opset
        self.dt = dt
        self.single = len(opset) == 1
        if self.single:
            op = opset.ops[0]
            self.band = op.bandwidth
            self.banded = self.band <= _SHIFTED_BAND_LIMIT
            if self.banded:
                upper = op.upper_banded()
                self.diag = upper[self.band]
                self.rhs = np.empty(opset.dim, dtype=np.complex128)
                if self.band == 1:
                    routine = "gtsv"
                    self.off = upper[0, 1:].astype(np.complex128)
                    self.dl = np.empty_like(self.off)
                    self.du = np.empty_like(self.off)
                    self.d = np.empty_like(self.rhs)
                else:
                    routine = "gbsv"
                    self.lu_band = _lu_band(upper)
                    self.lu = np.empty_like(self.lu_band)
                self.path = f"complex {routine}"
                (self.lapack,) = sla.get_lapack_funcs((routine,), dtype=np.complex128)
            else:
                self.path = "complex splu"
                self.h = op.csr.astype(np.complex128).tocsc()
                self.identity = sp.identity(opset.dim, dtype=np.complex128, format="csc")
            return
        self.centre = centre
        self.identity = sp.identity(opset.dim, format="csr")
        centred = [operator_from_csr(op.csr - c * self.identity) for op, c in zip(opset, centre)]
        squares = [op.square() for op in centred]
        self.band = max(op.bandwidth for op in centred + squares)
        self.banded = self.band <= _BAND_LIMIT
        if self.banded:
            self.path = "spd banded"
            u = self.band
            self.s2_band = sum(sq.upper_banded(u) for sq in squares)
            self.o_bands = np.stack([op.upper_banded(u) for op in centred])
        else:
            self.path = "real splu"
            self.s2_sum = sum(sq.csr for sq in squares)
            self.centred = [op.csr for op in centred]

    def _solve_band(self, z: complex, rhs: np.ndarray) -> np.ndarray:
        """(H - z) y = rhs in the run's buffers; y is valid until the next call."""
        self.rhs[:] = rhs
        if self.band == 1:
            self.dl[:] = self.off
            self.du[:] = self.off
            np.subtract(self.diag, z, out=self.d)
            *_, y, info = self.lapack(
                self.dl, self.d, self.du, self.rhs,
                overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
            )
        else:
            b = self.band
            np.copyto(self.lu, self.lu_band)
            np.subtract(self.diag, z, out=self.lu[2 * b])
            _, _, y, info = self.lapack(b, b, self.lu, self.rhs, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK {self.path} returned info={info}")
        return y

    def _solve_shifted(self, m: Moments, rhs: np.ndarray) -> np.ndarray:
        # A = dt[(H - e1)^2 + sigma^2] = dt(H - e1 - i sigma)(H - e1 + i sigma)
        sigma = float(np.sqrt(m.var[0] + 1.0 / self.dt))
        z = complex(m.e1[0], sigma)
        if self.banded:
            y = self._solve_band(z, rhs)
        else:
            y = spla.splu((self.h - z * self.identity).tocsc()).solve(rhs.astype(np.complex128))
        return (1.0 / (self.dt * sigma)) * y.imag

    def _solve_spd(self, m: Moments, rhs: np.ndarray) -> np.ndarray:
        dt = self.dt
        # (O - e1)^2 = (O - c)^2 - 2 d (O - c) + d^2 with d = e1 - c
        d = m.e1 - self.centre
        shift = 1.0 + dt * float((d * d + m.var).sum())
        if self.banded:
            ab = dt * self.s2_band - 2.0 * dt * np.tensordot(d, self.o_bands, axes=(0, 0))
            ab[self.band] += shift
            return sla.solveh_banded(ab, rhs, lower=False, check_finite=False)
        acc = shift * self.identity + dt * self.s2_sum
        for dj, op in zip(d, self.centred):
            acc = acc - 2.0 * dt * dj * op
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


def _take_step(stepper: _Stepper, x: np.ndarray, m: Moments) -> tuple[np.ndarray, float]:
    """One implicit-Euler step; returns the unit new state and its norm^2 before renormalizing."""
    x_new = stepper.solve(m, x)
    n_new = float(x_new @ x_new)
    if n_new == 0.0:
        raise DegenerateStateError("state collapsed to zero during a step")
    return x_new / np.sqrt(n_new), n_new


def implicit_step(
    opset: OperatorSet, v: StateVector, cfg: CollapseConfig | None = None
) -> StateVector:
    """Single implicit-Euler step (I - dt B(m)) v' = v, renormalized to a unit state."""
    cfg = cfg or CollapseConfig()
    m = moments(opset, v)
    x_new, _ = _take_step(_Stepper(opset, cfg.dt, m.e1), v.amps, m)
    return StateVector(x_new)


def collapse(
    opset: OperatorSet, v0: StateVector, cfg: CollapseConfig | None = None
) -> tuple[StateVector, ConvergenceReport]:
    """Iterate implicit_step until the residual |B v|/|v| drops below cfg.tol.

    Returns the final state and a report; report.converged is False when
    max_iter is exhausted first.  The caller decides how to proceed then.
    A non-finite residual or step norm (overflowing moments) raises
    DegenerateStateError naming the iteration.
    """
    cfg = cfg or CollapseConfig()
    t0 = time.perf_counter()
    if v0.norm2 == 0.0:
        raise DegenerateStateError("initial state has zero norm")
    x = v0.amps / np.sqrt(v0.norm2)
    t_eval = time.perf_counter()
    ev = _generator(opset, x)
    evaluate_s = time.perf_counter() - t_eval
    solve_s = 0.0
    _stop_if_non_finite("residual", ev.residual, 0)
    stepper = _Stepper(opset, cfg.dt, ev.m.e1)
    residual_trace = [ev.residual]
    norm_trace = [ev.norm2]
    moments_trace = [ev.m]
    warnings: list[str] = []
    converged = False
    iterations = 0
    stagnation_reported = False
    for i in range(1, cfg.max_iter + 1):
        t_step = time.perf_counter()
        x, n_new = _take_step(stepper, x, ev.m)
        t_eval = time.perf_counter()
        solve_s += t_eval - t_step
        _stop_if_non_finite("step norm^2", n_new, i)
        ev = _generator(opset, x)
        evaluate_s += time.perf_counter() - t_eval
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
        moments_trace=Moments(
            e1=np.array([m.e1 for m in moments_trace]),
            e2=np.array([m.e2 for m in moments_trace]),
            var=np.array([m.var for m in moments_trace]),
        ),
        converged=converged,
        wall_time=time.perf_counter() - t0,
        solve_path=stepper.path,
        bandwidth=stepper.band,
        evaluate_s=evaluate_s,
        solve_s=solve_s,
        warnings=warnings,
    )
    return StateVector(x), report
