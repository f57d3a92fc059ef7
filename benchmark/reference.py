"""Reference computations made apart from eigentow.

Every check in the benchmark compares the program's output with a result
computed here from the benchmark's own arrays: LAPACK through scipy.linalg
for eigenpairs, and the exact coefficient flow solved with scipy.integrate
for the eigenstate a collapse must select.  Nothing here imports eigentow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import lapack


def jc_chain(n: int, kappa: float, omega0: float = 1.0, omega: float = 2.0):
    """Diagonal and off-diagonal of the N-molecule Jaynes-Cummings chain.

    Basis |i>: i molecules de-excited and i photons (excitation number
    c = j = N/2), so <i|H|i> = (j - i) omega0 + i omega and the coupling
    kappa/sqrt(N) (b J+ + b' J-) links |i> and |i+1> with
    kappa/sqrt(4j) * sqrt(i + 1) * sqrt(j(j+1) - m(m+1)), m = j - i - 1.
    """
    j = n / 2.0
    i = np.arange(n + 1, dtype=np.float64)
    diag = (j - i) * omega0 + i * omega
    ii = i[:-1]
    m = j - ii - 1.0
    off = kappa / math.sqrt(4.0 * j) * np.sqrt(ii + 1.0) * np.sqrt(j * (j + 1.0) - m * (m + 1.0))
    return diag, off


def ladder_bands(n: int, bandwidth: int, scale: float, rng: np.random.Generator):
    """Levels 0, 1, ..., n-1 with Gaussian couplings to the `bandwidth` nearest levels.

    Returns the list [diagonal, superdiagonal 1, ..., superdiagonal bandwidth].
    """
    bands = [np.arange(n, dtype=np.float64)]
    bands += [scale * rng.standard_normal(n - k) for k in range(1, bandwidth + 1)]
    return bands


def sparse_from_bands(bands) -> sp.csr_matrix:
    """Symmetric scipy.sparse matrix from a diagonal and its superdiagonals."""
    n = bands[0].size
    data = [bands[0]]
    offsets = [0]
    for k, b in enumerate(bands[1:], start=1):
        data += [b, b]
        offsets += [k, -k]
    return sp.diags(data, offsets, shape=(n, n), format="csr")


def upper_band_storage(bands) -> np.ndarray:
    """LAPACK upper band storage: row u - k holds superdiagonal k."""
    u = len(bands) - 1
    n = bands[0].size
    ab = np.zeros((u + 1, n))
    for k, b in enumerate(bands):
        ab[u - k, k:] = b
    return ab


def rayleigh(a: sp.csr_matrix, v: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient and residual |A v - rho v| / |v|."""
    av = a @ v
    n2 = float(v @ v)
    rho = float(v @ av) / n2
    return rho, float(np.linalg.norm(av - rho * v)) / math.sqrt(n2)


def vector_distance(v: np.ndarray, u: np.ndarray) -> float:
    """Sign-invariant distance between the unit directions of v and u."""
    v = v / np.linalg.norm(v)
    u = u / np.linalg.norm(u)
    return float(min(np.linalg.norm(v - u), np.linalg.norm(v + u)))


@dataclass
class EigenpairCheck:
    """Outcome of matching a state against the LAPACK eigenpair at its Rayleigh quotient."""

    ok: bool
    index: int  # position of the eigenvalue in the ascending spectrum, -1 if none
    note: str
    vector: np.ndarray | None = None  # the LAPACK eigenvector


def _window(rho: float, residual: float) -> float:
    # Weinstein: an eigenvalue lies within `residual` of rho
    return 2.0 * residual + 1e-9 * max(1.0, abs(rho))


def _match(v, rho, residual, values_in_window, vector, gap, count_below) -> EigenpairCheck:
    """Exactly one eigenvalue in the window, and v close to its eigenvector."""
    if len(values_in_window) != 1:
        return EigenpairCheck(
            False, -1,
            f"{len(values_in_window)} LAPACK eigenvalues within the window at rho={rho:.12g}",
        )
    dist = vector_distance(v, vector)
    # Davis-Kahan: sin(angle) <= residual / gap, and the chord is at most ~ the angle
    allowed = 2.0 * residual / gap + 1e-9
    note = f"level {count_below}, distance {dist:.2e} (allowed {allowed:.2e})"
    return EigenpairCheck(dist <= allowed, count_below, note, vector)


def tridiagonal_eigenpair(diag, off, v: np.ndarray) -> EigenpairCheck:
    """LAPACK eigh_tridiagonal must hold exactly one eigenpair at v's Rayleigh quotient."""
    a = sparse_from_bands([diag, off])
    rho, residual = rayleigh(a, v)
    w = _window(rho, residual)
    vals, vecs = sla.eigh_tridiagonal(diag, off, select="v", select_range=(rho - w, rho + w))
    near = sla.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(rho - 50.0, rho + 50.0)
    )
    others = near[np.abs(near - rho) > w]
    gap = float(np.abs(others - rho).min()) if others.size else 50.0
    if len(vals) != 1:
        return _match(v, rho, residual, vals, None, gap, -1)
    floor = float(diag.min()) - 2.0 * float(np.abs(off).max()) - 1.0  # Gershgorin
    below = sla.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(floor, rho - w)
    ).size
    return _match(v, rho, residual, vals, vecs[:, 0], gap, int(below))


def tridiagonal_vector(diag, off, index: int) -> np.ndarray:
    """LAPACK eigenvector `index` (ascending) of a symmetric tridiagonal matrix."""
    _, vecs = sla.eigh_tridiagonal(diag, off, select="i", select_range=(index, index))
    return vecs[:, 0]


class BandedSpectrum:
    """All eigenvalues of a banded symmetric matrix (LAPACK dsbev through eig_banded),
    with eigenvectors by inverse iteration on LAPACK's banded LU (dgbtrf/dgbtrs).

    A full eig_banded with vectors forms the N x N reduction matrix; at
    N = 4000 that takes about 27 s, while this takes about a second.
    """

    def __init__(self, bands, seed: int = 0):
        self.bands = bands
        self.n = bands[0].size
        self.u = len(bands) - 1
        self.values = sla.eig_banded(upper_band_storage(bands), eigvals_only=True)
        self.scale = float(np.abs(self.values).max())
        self._rng = np.random.default_rng(seed)
        # general band storage for dgbtrf: u extra rows on top for the LU fill-in
        u = self.u
        self._general = np.zeros((3 * u + 1, self.n), order="F")
        for k, b in enumerate(bands):
            self._general[2 * u - k, k:] = b  # superdiagonal k
            self._general[2 * u + k, : self.n - k] = b  # subdiagonal k
        self._start = self._rng.standard_normal(self.n)

    def vector(self, index: int) -> np.ndarray:
        """Two steps of inverse iteration at the LAPACK eigenvalue."""
        lam = float(self.values[index])
        u = self.u
        for attempt in range(3):
            ab = self._general.copy(order="F")
            ab[2 * u] -= lam + attempt * 1e-12 * self.scale
            lu, piv, _ = lapack.dgbtrf(ab, u, u, overwrite_ab=1)
            x = self._start
            for _ in range(2):
                x, info = lapack.dgbtrs(lu, u, u, x, piv)
                norm = float(np.linalg.norm(x))
                if info != 0 or not math.isfinite(norm) or norm == 0.0:
                    break
                x = x / norm
            else:
                return x
        raise RuntimeError(f"inverse iteration failed at eigenvalue {lam}")

    def start_weights(self, starts) -> np.ndarray:
        """|<e_s|u_a>|^2 for every start s (rows) and every eigenvector u_a (columns)."""
        starts = list(starts)
        return np.array([self.vector(a)[starts] ** 2 for a in range(self.n)]).T

    def eigenpair(self, v: np.ndarray) -> EigenpairCheck:
        a = sparse_from_bands(self.bands)
        rho, residual = rayleigh(a, v)
        w = _window(rho, residual)
        inside = np.nonzero(np.abs(self.values - rho) <= w)[0]
        others = self.values[np.abs(self.values - rho) > w]
        gap = float(np.abs(others - rho).min())
        if inside.size != 1:
            return _match(v, rho, residual, inside, None, gap, -1)
        index = int(inside[0])
        return _match(v, rho, residual, inside, self.vector(index), gap, index)


@dataclass
class FlowOutcome:
    winner: int  # index into the ascending spectrum
    share: float  # the winner's probability at the end of the integration
    t_end: float


def flow_winner(values: np.ndarray, weights: np.ndarray) -> FlowOutcome:
    """Eigenstate the exact coefficient flow selects from the given Born weights.

    In the eigenbasis the collapse flow is d ln p_a/dt = -2[(a - <E>)^2 + Var],
    so ln p_a(t) = ln p_a(0) - 2 t a^2 + 4 a S(t) + const with S' = <E>(t).
    That scalar equation is integrated with scipy.integrate over every
    eigenpair whose weight is above zero, until one probability exceeds
    1 - 1e-9.
    """
    keep = np.nonzero(weights > 0.0)[0]
    lw = np.log(weights[keep])
    p0 = np.exp(lw - lw.max())
    a0 = float(p0 @ values[keep]) / float(p0.sum())
    x = values[keep] - a0  # the flow is invariant under a common shift

    def probs(t: float, s: float) -> np.ndarray:
        z = lw - 2.0 * t * x * x + 4.0 * x * s
        p = np.exp(z - z.max())
        return p / p.sum()

    def rhs(t, y):
        return [float(probs(t, y[0]) @ x)]

    gaps = np.diff(np.sort(x))
    t_end = 20.0 / max(float(gaps[gaps > 0].min()), 1e-6) ** 2 if gaps.size else 1.0
    s0, t0 = 0.0, 0.0
    for _ in range(6):
        sol = solve_ivp(rhs, (t0, t_end), [s0], method="LSODA", rtol=1e-10, atol=1e-10)
        if not sol.success:
            raise RuntimeError(f"coefficient flow integration failed: {sol.message}")
        s0, t0 = float(sol.y[0, -1]), t_end
        p = probs(t_end, s0)
        best = int(p.argmax())
        if p[best] > 1.0 - 1e-9:
            break
        t_end *= 10.0
    return FlowOutcome(int(keep[best]), float(p[best]), t_end)
