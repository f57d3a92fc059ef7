"""Jaynes-Cummings test problem: N two-level molecules coupled to one field mode.

With the conserved total excitation number c = b'b + J_z fixed, the
Hamiltonian is tridiagonal in the basis |i> (i molecules de-excited, c-j+i
photons, j = N/2).  The module builds that matrix, evaluates the atomic
inversion order parameter, and runs the excited-state transition scan:
eigenvector k = q*N is followed over a coupling grid and the maximum
inversion is regressed against N to estimate the critical-exponent ratio.

The scan grid for q > 0 is centered on the coupling where level k crosses
the separatrix energy j*omega0 (the energy of the unstable fully-excited
configuration), because the inversion peak that scales with N lives there;
the global maximum over a naive [0, 2*kappa_c] grid sits trivially at
kappa = 0 and carries no finite-size signal.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.stats import linregress
from scipy.stats import t as student_t

from .collapse import CollapseConfig, collapse
from .errors import ContractViolationError, ParameterError
from .operators import OperatorSet, SparseSymmetricOperator, StateVector
from .oracle import tridiag_eig, tridiag_eigenvalues

__all__ = [
    "JCParams",
    "ScanRow",
    "ScanResult",
    "ScalingRow",
    "ScalingTable",
    "build_hamiltonian",
    "atomic_inversion",
    "critical_coupling",
    "critical_coupling_at_ratio",
    "auto_kappa_grid",
    "scan_kappa",
    "fit_critical_exponent",
]

_GRID_POINTS = 61
_REFINE_SPAN = 2  # coarse steps on each side of the argmax
_WINDOW = (0.8, 1.2)  # auto grid around the level-crossing coupling
_CROSSING_RTOL = 4.0 * np.finfo(np.float64).eps  # the finest brentq accepts
_MERGE_RTOL = 4.0 * np.finfo(np.float64).eps  # a fine point this close repeats a coarse one


@dataclass(frozen=True)
class JCParams:
    """Model parameters; c defaults to j = N/2 (no photons at i = 0)."""

    n_molecules: int
    kappa: float = 0.0
    omega0: float = 1.0
    omega: float = 2.0
    c: float | None = None

    def __post_init__(self) -> None:
        n = self.n_molecules
        if not isinstance(n, (int, np.integer)) or n <= 0 or n % 2 != 0:
            raise ParameterError(f"n_molecules must be a positive even integer, got {n}")
        if self.kappa < 0:
            raise ParameterError(f"kappa must be nonnegative, got {self.kappa}")
        if self.c is None:
            object.__setattr__(self, "c", self.j)
        if self.c < self.j:
            raise ParameterError(
                f"c = {self.c} < j = {self.j} would give negative photon numbers"
            )

    @property
    def j(self) -> float:
        return self.n_molecules / 2.0

    @property
    def dim(self) -> int:
        return self.n_molecules + 1


def _tridiag_arrays(p: JCParams) -> tuple[np.ndarray, np.ndarray]:
    j = p.j
    i = np.arange(p.dim, dtype=np.float64)
    diag = (j - i) * p.omega0 + (p.c - j + i) * p.omega
    ii = i[:-1]
    m = j - ii - 1.0
    rad_photon = p.c - j + ii + 1.0
    rad_ladder = j * (j + 1.0) - m * (m + 1.0)
    for rad, what in ((rad_photon, "photon number"), (rad_ladder, "ladder factor")):
        if rad.min(initial=0.0) < -1e-12 * max(j * j, 1.0):
            raise ParameterError(f"negative {what} radicand: invalid (c, j) combination")
        np.clip(rad, 0.0, None, out=rad)
    off = (p.kappa / np.sqrt(4.0 * j)) * np.sqrt(rad_photon) * np.sqrt(rad_ladder)
    return diag, off


def build_hamiltonian(p: JCParams) -> SparseSymmetricOperator:
    diag, off = _tridiag_arrays(p)
    return SparseSymmetricOperator.from_tridiagonal(diag, off)


def atomic_inversion(v: StateVector, j: float) -> float:
    """Scaled inversion <J_z>/j = 1 - (1/j) * sum_i v_i^2 * i for a unit vector."""
    if abs(v.norm - 1.0) > 1e-10:
        raise ContractViolationError("atomic_inversion expects a unit-norm state")
    idx = np.arange(len(v), dtype=np.float64)
    return 1.0 - float((v.amps * v.amps) @ idx) / j


def critical_coupling(omega0: float, omega: float) -> float:
    """Ground-state transition point sqrt((omega - omega0)^2 / 2)."""
    return abs(omega - omega0) / math.sqrt(2.0)


def _target_index(p: JCParams, q: float) -> int:
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"spectrum ratio q must lie in [0, 1], got {q}")
    kf = q * p.n_molecules
    k = int(round(kf))
    if abs(kf - k) > 1e-9:
        raise ParameterError(f"q*N = {kf} is not integral; pick q = k/N")
    return k


def _level_at(p: JCParams, k: int, kappa: float) -> float:
    diag, off = _tridiag_arrays(replace(p, kappa=kappa))
    return float(tridiag_eigenvalues(diag, off, indices=[k])[0])


def critical_coupling_at_ratio(p: JCParams, q: float) -> float:
    """Coupling where eigenvalue k = q*N crosses the separatrix energy j*omega0.

    Levels above the ground state sink through j*omega0 as kappa grows; the
    crossing is bracketed by doubling the coupling and then located by
    Brent's method on the oracle eigenvalue.
    """
    k = _target_index(p, q)
    if k == 0:
        raise ParameterError("q = 0 has no interior crossing; use critical_coupling")
    target = p.j * p.omega0
    if _level_at(p, k, 0.0) <= target:
        raise ParameterError(
            "level k does not start above the separatrix energy; "
            "refocusing requires omega > omega0"
        )
    lo, hi = 0.0, max(critical_coupling(p.omega0, p.omega), 1.0)
    for _ in range(60):
        if _level_at(p, k, hi) < target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ParameterError("no crossing found while doubling the coupling")
    return float(
        brentq(lambda kappa: _level_at(p, k, kappa) - target, lo, hi,
               xtol=1e-15, rtol=_CROSSING_RTOL)
    )


def auto_kappa_grid(
    p: JCParams, q: float, points: int = _GRID_POINTS
) -> np.ndarray:
    """Default coupling grid: [0, 2*kappa_c] for q = 0, else a window around
    the level-crossing coupling where the scaling peak sits."""
    if points < 2:
        raise ParameterError("grid needs at least 2 points")
    if _target_index(p, q) == 0:
        kc = critical_coupling(p.omega0, p.omega)
        if kc == 0.0:
            raise ParameterError(
                "omega == omega0 gives kappa_c = 0; supply an explicit grid"
            )
        return np.linspace(0.0, 2.0 * kc, points)
    kq = critical_coupling_at_ratio(p, q)
    return np.linspace(_WINDOW[0] * kq, _WINDOW[1] * kq, points)


@dataclass(frozen=True)
class ScanRow:
    kappa: float
    inversion: float
    scaled_energy: float
    converged: bool


_ROW_DTYPE = np.dtype(
    [("kappa", "f8"), ("inversion", "f8"), ("scaled_energy", "f8"), ("converged", "?")]
)


class ScanRows(Sequence[ScanRow]):
    """Read-only sequence of ScanRow backed by one structured array.

    A scan keeps about 25 bytes per row this way instead of a ScanRow object
    with four boxed fields, which matters when many scans are held at once.
    """

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[ScanRow]):
        self._data = np.array(
            [(r.kappa, r.inversion, r.scaled_energy, r.converged) for r in rows],
            dtype=_ROW_DTYPE,
        )
        self._data.flags.writeable = False

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScanRows(self[k] for k in range(*i.indices(len(self))))
        return ScanRow(*self._data[i].tolist())

    def __iter__(self) -> Iterator[ScanRow]:
        return (ScanRow(*rec) for rec in self._data.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"ScanRows({list(self)!r})"


@dataclass
class ScanResult:
    """Merged two-pass scan over the coupling grid for one (N, q) pair."""

    n_molecules: int
    q: float
    c: float
    omega0: float
    omega: float
    method: str
    kappa_center: float
    rows: Sequence[ScanRow]

    def __post_init__(self) -> None:
        self.rows = ScanRows(self.rows)

    @property
    def j(self) -> float:
        return self.n_molecules / 2.0

    def converged_rows(self) -> list[ScanRow]:
        return [r for r in self.rows if r.converged]

    def max_row(self) -> ScanRow:
        rows = self.converged_rows()
        if not rows:
            raise ParameterError("scan has no converged rows")
        return max(rows, key=lambda r: r.inversion)


def _eval_oracle(p: JCParams, k: int) -> Callable[[float], ScanRow]:
    def evaluate(kappa: float) -> ScanRow:
        diag, off = _tridiag_arrays(replace(p, kappa=kappa))
        dec = tridiag_eig(diag, off, indices=[k])
        v = StateVector(dec.eigenvectors[:, 0])
        return ScanRow(
            kappa=float(kappa),
            inversion=atomic_inversion(v, p.j),
            scaled_energy=float(dec.eigenvalues[0]) / p.j,
            converged=True,
        )

    return evaluate


class _TowingLadder:
    """Walks eigenvector k up the coupling ladder, re-collapsing per rung.

    Rungs must be visited in ascending kappa order; the previous rung's
    state seeds the next collapse.  Starts from the basis vector that is
    the k-th eigenvector of the decoupled (kappa = 0) Hamiltonian.
    """

    def __init__(self, p: JCParams, k: int, cfg: CollapseConfig):
        diag0, _ = _tridiag_arrays(replace(p, kappa=0.0))
        order = np.argsort(diag0, kind="stable")
        self.p = p
        self.cfg = cfg
        self.state = StateVector.basis(p.dim, int(order[k]))
        self.kappa = 0.0

    def advance(self, kappa: float) -> ScanRow:
        if kappa < self.kappa - 1e-15:
            raise ParameterError("towing ladder must move in ascending kappa order")
        h = build_hamiltonian(replace(self.p, kappa=kappa))
        self.state, report = collapse(OperatorSet([h]), self.state, self.cfg)
        self.kappa = kappa
        energy = float(self.state.amps @ h.matvec(self.state.amps)) / self.state.norm2
        return ScanRow(
            kappa=float(kappa),
            inversion=atomic_inversion(self.state.normalized(), self.p.j),
            scaled_energy=energy / self.p.j,
            converged=report.converged,
        )


def _towing_rows(
    p: JCParams, k: int, kappas: np.ndarray, cfg: CollapseConfig
) -> list[ScanRow]:
    ladder = _TowingLadder(p, k, cfg)
    rows = []
    step = float(np.diff(kappas).min(initial=np.inf))
    if not np.isfinite(step) or step <= 0.0:
        step = max(kappas[-1], 1.0) / (_GRID_POINTS - 1)
    # pre-ramp from the decoupled matrix up to the first grid point
    if kappas[0] > 0.0:
        n_ramp = min(int(math.ceil(kappas[0] / step)), 200)
        for kap in np.linspace(0.0, kappas[0], n_ramp + 1)[1:-1]:
            ladder.advance(float(kap))
    for kap in kappas:
        rows.append(ladder.advance(float(kap)))
    return rows


def _scan_pass(
    p: JCParams,
    k: int,
    kappas: np.ndarray,
    method: str,
    cfg: CollapseConfig,
) -> list[ScanRow]:
    if method == "oracle":
        evaluate = _eval_oracle(p, k)
        return [evaluate(float(kap)) for kap in kappas]
    if method == "towing":
        return _towing_rows(p, k, kappas, cfg)
    raise ParameterError(f"unknown scan method {method!r}")


def scan_kappa(
    base: JCParams,
    q: float,
    kappas: Sequence[float] | None = None,
    method: str = "oracle",
    points: int = _GRID_POINTS,
    collapse_cfg: CollapseConfig | None = None,
) -> ScanResult:
    """Two-pass scan of eigenvector k = q*N over a coupling grid.

    Pass one covers the coarse grid; pass two re-scans an equal-size grid
    over +-2 coarse steps around the converged argmax.  Rows of both passes
    are merged in ascending kappa order, dropping fine rows within a few ulp
    of a coarse one; non-converged rows stay flagged.
    """
    k = _target_index(base, q)
    if kappas is None:
        grid = auto_kappa_grid(base, q, points)
        center = 0.5 * (grid[0] + grid[-1])
    else:
        grid = np.asarray(kappas, dtype=np.float64).ravel()
        if grid.size < 2:
            raise ParameterError("kappa grid needs at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ParameterError("kappa grid must be strictly ascending")
        if grid[0] < 0:
            raise ParameterError("couplings must be nonnegative")
        center = 0.5 * (grid[0] + grid[-1])
    cfg = collapse_cfg or CollapseConfig(max_iter=20000)

    coarse = _scan_pass(base, k, grid, method, cfg)
    converged_i = [i for i, r in enumerate(coarse) if r.converged]
    rows = list(coarse)
    if converged_i:
        best = max(converged_i, key=lambda i: coarse[i].inversion)
        lo = grid[max(best - _REFINE_SPAN, 0)]
        hi = grid[min(best + _REFINE_SPAN, grid.size - 1)]
        if hi > lo:
            fine_grid = np.linspace(lo, hi, grid.size)
            fine = _scan_pass(base, k, fine_grid, method, cfg)
            fine_k = np.array([r.kappa for r in fine])
            gap = np.abs(fine_k[:, None] - grid[None, :]).min(axis=1)
            repeats = gap <= _MERGE_RTOL * np.abs(fine_k)
            rows.extend(r for r, rep in zip(fine, repeats) if not rep)
            rows.sort(key=lambda r: r.kappa)
    return ScanResult(
        n_molecules=base.n_molecules,
        q=q,
        c=float(base.c),
        omega0=base.omega0,
        omega=base.omega,
        method=method,
        kappa_center=float(center),
        rows=rows,
    )


@dataclass(frozen=True)
class ScalingRow:
    n_molecules: int
    kappa: float
    max_inversion: float  # unscaled j * <J_z>/j, the regression quantity
    kappa_at_max: float


@dataclass(frozen=True)
class ScalingTable:
    """Log-log fit of the maximum unscaled inversion against N."""

    q: float
    slope: float
    intercept: float
    ci95: float
    n_points: int
    rows: tuple[ScalingRow, ...]


def fit_critical_exponent(
    results: Sequence[ScanResult], q: float | None = None
) -> ScalingTable:
    """OLS slope of log(max j*inversion) vs log(N) with a t-based 95% CI."""
    if not results:
        raise ParameterError("no scan results supplied")
    qs = {round(r.q, 12) for r in results}
    if len(qs) > 1:
        raise ParameterError(f"scan results mix spectrum ratios {sorted(qs)}")
    q_eff = results[0].q if q is None else q
    if q is not None and abs(results[0].q - q) > 1e-12:
        raise ParameterError("requested q does not match the scan results")
    srows = []
    for res in results:
        try:
            best = res.max_row()
        except ParameterError:
            continue  # nothing converged for this N
        unscaled = res.j * best.inversion
        if unscaled <= 0.0:
            continue  # log-log fit undefined
        srows.append(
            ScalingRow(
                n_molecules=res.n_molecules,
                kappa=res.kappa_center,
                max_inversion=unscaled,
                kappa_at_max=best.kappa,
            )
        )
    srows.sort(key=lambda r: r.n_molecules)
    ns = [r.n_molecules for r in srows]
    if len(set(ns)) != len(ns):
        raise ParameterError("duplicate N among scan results")
    if len(ns) < 3:
        raise ParameterError("critical-exponent fit needs at least 3 values of N")
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray([r.max_inversion for r in srows]))
    fit = linregress(x, y)
    dof = len(ns) - 2
    ci95 = float(student_t.ppf(0.975, dof) * fit.stderr)
    return ScalingTable(
        q=float(q_eff),
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        ci95=ci95,
        n_points=len(ns),
        rows=tuple(srows),
    )
