"""Symmetric eigensolvers used as ground truth in tests and checks.

Both are thin wrappers over LAPACK through scipy.linalg: dense_eig calls
eigh (syevr) on the dense matrix, and tridiag_eig brackets the requested
eigenvalues by Sturm-sequence bisection (stebz) and recovers their
eigenvectors by inverse iteration (stein).  Both reject non-finite input
(dense_eig through its operator, which cannot hold one) and share one sign
convention, so results are directly comparable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import ContractViolationError, ParameterError
from .operators import SparseSymmetricOperator, StateVector, _check_finite

__all__ = [
    "EigenDecomposition",
    "dense_eig",
    "tridiag_eig",
    "tridiag_eigenvalues",
    "compare_eigvec",
    "rayleigh_residual",
]

_DENSE_DIM_LIMIT = 4096


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def vector(self, i: int) -> StateVector:
        return StateVector(self.eigenvectors[:, i].copy())


def _sign_gauge(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude component is positive."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def dense_eig(matrix: SparseSymmetricOperator) -> EigenDecomposition:
    """Full decomposition by LAPACK (scipy.linalg.eigh), for dimensions <= 4096."""
    if matrix.dim > _DENSE_DIM_LIMIT:
        raise ParameterError(
            f"dense_eig is limited to dim <= {_DENSE_DIM_LIMIT}; use tridiag_eig"
        )
    w, v = sla.eigh(matrix.to_dense())
    return EigenDecomposition(w, _sign_gauge(v))


def _validate_tridiag(
    diag: Sequence[float], offdiag: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(diag, dtype=np.float64).ravel()
    e = np.asarray(offdiag, dtype=np.float64).ravel()
    if d.size < 1:
        raise ContractViolationError("diagonal must be non-empty")
    if e.size != d.size - 1:
        raise ContractViolationError("offdiag must have length dim - 1")
    _check_finite("diagonal", d)
    _check_finite("offdiag", e)
    return d, e


def _resolve_indices(n: int, indices: Sequence[int] | None) -> np.ndarray:
    if indices is None:
        return np.arange(n)
    ks = np.unique(np.asarray(indices, dtype=np.int64))
    if ks.size == 0:
        raise ParameterError("indices must be non-empty")
    if ks.min() < 0 or ks.max() >= n:
        raise ParameterError(f"eigenvalue indices must lie in [0, {n})")
    return ks


def _runs(ks: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous runs (first, last) of the sorted unique indices ks."""
    breaks = np.flatnonzero(np.diff(ks) != 1)
    firsts = np.r_[ks[0], ks[breaks + 1]]
    lasts = np.r_[ks[breaks], ks[-1]]
    return list(zip(firsts.tolist(), lasts.tolist()))


def tridiag_eigenvalues(
    diag: Sequence[float],
    offdiag: Sequence[float],
    indices: Sequence[int] | None = None,
) -> np.ndarray:
    """Selected eigenvalues (ascending index order) by LAPACK bisection (stebz)."""
    d, e = _validate_tridiag(diag, offdiag)
    ks = _resolve_indices(d.size, indices)
    if d.size == 1:
        return d.copy()
    return np.concatenate([
        sla.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                             select_range=run, check_finite=False)
        for run in _runs(ks)
    ])


def tridiag_eig(
    diag: Sequence[float],
    offdiag: Sequence[float],
    indices: Sequence[int] | None = None,
) -> EigenDecomposition:
    """Eigenpairs of a symmetric tridiagonal matrix for the requested indices.

    Eigenvalues come from LAPACK bisection (stebz) and eigenvectors from
    inverse iteration with cluster reorthogonalization (stein), one LAPACK
    call per contiguous run of indices.
    """
    d, e = _validate_tridiag(diag, offdiag)
    ks = _resolve_indices(d.size, indices)
    if d.size == 1:
        return EigenDecomposition(d.copy(), np.ones((1, 1)))
    pairs = [
        sla.eigh_tridiagonal(d, e, select="i", select_range=run, check_finite=False)
        for run in _runs(ks)
    ]
    values = np.concatenate([w for w, _ in pairs])
    vectors = np.hstack([v for _, v in pairs])
    return EigenDecomposition(values, _sign_gauge(vectors))


def compare_eigvec(v: StateVector, ref: StateVector) -> float:
    """Sign-gauge invariant distance min(|v - ref|, |v + ref|)."""
    if len(v) != len(ref):
        raise ContractViolationError("vectors must have equal length")
    for s in (v, ref):
        if abs(s.norm - 1.0) > 1e-8:
            raise ContractViolationError("compare_eigvec expects unit vectors")
    return float(
        min(np.linalg.norm(v.amps - ref.amps), np.linalg.norm(v.amps + ref.amps))
    )


def rayleigh_residual(
    op: SparseSymmetricOperator, v: StateVector
) -> tuple[float, float]:
    """Rayleigh quotient and relative residual (rho, |O v - rho v|/|v|)."""
    n2 = v.norm2
    if n2 == 0.0:
        raise ContractViolationError("zero vector has no Rayleigh quotient")
    ov = op.matvec(v.amps)
    rho = float(v.amps @ ov) / n2
    r = float(np.linalg.norm(ov - rho * v.amps)) / np.sqrt(n2)
    return rho, r
