"""Sparse symmetric operators, operator sets, states, and the collapse generator.

The collapse dynamics evolves a state under the generator

    B = sum_j [2*E1_j*O_j - O_j^2 - E2_j*I]
      = -sum_j [(O_j - E1_j*I)^2 + Var_j*I],

which is negative semidefinite and vanishes exactly on common eigenvectors
of the operator set {O_j}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolationError, DegenerateStateError, ParameterError

__all__ = [
    "SparseSymmetricOperator",
    "OperatorSet",
    "StateVector",
    "Moments",
    "matvec",
    "moments",
    "apply_B",
    "assemble_solve_matrix",
    "commutation_check",
    "exchange_operator",
    "operator_from_csr",
    "combine_operators",
]


def _check_finite(what: str, values: np.ndarray) -> None:
    """Raise on the first non-finite entry of a 1-D array, naming its index."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ContractViolationError(f"{what} entry {i} is not finite ({values[i]})")


@dataclass
class SparseSymmetricOperator:
    """Real symmetric matrix stored as its upper triangle in triplet form.

    Entries are canonicalized to row-major order; only row <= col is stored.
    Instances are immutable by convention and safe to share between threads.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ParameterError(f"dimension must be positive, got {self.dim}")
        self.rows = np.asarray(self.rows, dtype=np.int64).ravel()
        self.cols = np.asarray(self.cols, dtype=np.int64).ravel()
        self.vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ContractViolationError("rows, cols, vals must have equal length")
        bad = np.flatnonzero(~np.isfinite(self.vals))
        if bad.size:
            i = int(bad[0])
            raise ContractViolationError(
                f"non-finite value {self.vals[i]} at entry {i} "
                f"(row {self.rows[i]}, col {self.cols[i]})"
            )
        if self.rows.size:
            if self.rows.min() < 0 or self.cols.max() >= self.dim:
                raise ContractViolationError("entry index out of range")
            if np.any(self.rows > self.cols):
                raise ContractViolationError("entries must satisfy row <= col")
            order = np.lexsort((self.cols, self.rows))
            self.rows = self.rows[order]
            self.cols = self.cols[order]
            self.vals = self.vals[order]
            keys = self.rows * self.dim + self.cols
            if np.any(np.diff(keys) == 0):
                raise ContractViolationError("duplicate (row, col) entry")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "SparseSymmetricOperator":
        idx = np.arange(dim)
        return cls(dim, idx, idx, np.ones(dim))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "SparseSymmetricOperator":
        d = np.asarray(values, dtype=np.float64)
        keep = d != 0.0
        idx = np.arange(d.size)[keep]
        return cls(d.size, idx, idx, d[keep])

    @classmethod
    def from_tridiagonal(
        cls, diag: Sequence[float], offdiag: Sequence[float]
    ) -> "SparseSymmetricOperator":
        d = np.asarray(diag, dtype=np.float64)
        e = np.asarray(offdiag, dtype=np.float64)
        if e.size != d.size - 1:
            raise ContractViolationError("offdiag must have length dim - 1")
        rows = [np.arange(d.size)[d != 0.0], np.arange(e.size)[e != 0.0]]
        cols = [rows[0], rows[1] + 1]
        vals = [d[d != 0.0], e[e != 0.0]]
        return cls(
            d.size, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
        )

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymmetricOperator":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolationError("dense input must be a square matrix")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if np.abs(a - a.T).max(initial=0.0) > 1e-12 * scale:
            raise ContractViolationError("dense input is not symmetric")
        sym = 0.5 * (a + a.T)
        r, c = np.nonzero(np.triu(sym))
        return cls(a.shape[0], r, c, sym[r, c])

    # -- derived views ---------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def bandwidth(self) -> int:
        if not self.vals.size:
            return 0
        return int((self.cols - self.rows).max())

    @property
    def csr(self) -> sp.csr_matrix:
        """Symmetrized CSR form (both triangles), cached."""
        if self._csr is None:
            off = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off]])
            c = np.concatenate([self.cols, self.rows[off]])
            v = np.concatenate([self.vals, self.vals[off]])
            self._csr = sp.coo_matrix((v, (r, c)), shape=(self.dim, self.dim)).tocsr()
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr.dot(x)

    def upper_banded(self, bandwidth: int | None = None) -> np.ndarray:
        """Upper banded storage: out[u + i - j, j] holds entry (i, j), i <= j."""
        u = self.bandwidth if bandwidth is None else int(bandwidth)
        if u < self.bandwidth:
            raise ContractViolationError("requested bandwidth below actual bandwidth")
        ab = np.zeros((u + 1, self.dim))
        ab[u + self.rows - self.cols, self.cols] = self.vals
        return ab

    def square(self) -> "SparseSymmetricOperator":
        return operator_from_csr(self.csr.dot(self.csr))


def operator_from_csr(m: sp.spmatrix) -> SparseSymmetricOperator:
    """Upper triangle of a symmetric sparse matrix as an operator."""
    upper = sp.triu(m, k=0).tocoo()
    mask = upper.data != 0.0
    return SparseSymmetricOperator(
        m.shape[0], upper.row[mask], upper.col[mask], upper.data[mask]
    )


def combine_operators(
    terms: Iterable[tuple[float, SparseSymmetricOperator]],
) -> SparseSymmetricOperator:
    """Linear combination sum_k alpha_k * O_k as a new operator."""
    terms = list(terms)
    if not terms:
        raise ContractViolationError("need at least one term")
    dim = terms[0][1].dim
    acc = sp.csr_matrix((dim, dim))
    for alpha, op in terms:
        if op.dim != dim:
            raise ContractViolationError("operator dimensions differ")
        acc = acc + alpha * op.csr
    return operator_from_csr(acc)


@dataclass
class StateVector:
    """Real amplitude vector with a cached squared norm."""

    amps: np.ndarray
    _norm2: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=np.float64).ravel()
        if self.amps.size == 0:
            raise ContractViolationError("state vector must be non-empty")
        _check_finite("amplitude", self.amps)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise ParameterError(f"basis index {index} outside [0, {dim})")
        amps = np.zeros(dim)
        amps[index] = 1.0
        return cls(amps)

    def __len__(self) -> int:
        return int(self.amps.size)

    @property
    def norm2(self) -> float:
        if self._norm2 is None:
            self._norm2 = float(self.amps @ self.amps)
        return self._norm2

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm2))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0 or not np.isfinite(n):
            raise DegenerateStateError("cannot normalize a zero or non-finite vector")
        return StateVector(self.amps / n)


@dataclass
class Moments:
    """Per-operator first and second moments and variances of a state."""

    e1: np.ndarray
    e2: np.ndarray
    var: np.ndarray


class OperatorSet:
    """Nonempty family of same-dimension symmetric operators, with cached squares."""

    def __init__(self, ops: Sequence[SparseSymmetricOperator]):
        ops = tuple(ops)
        if not ops:
            raise ContractViolationError("operator set must be nonempty")
        dim = ops[0].dim
        if any(op.dim != dim for op in ops):
            raise ContractViolationError("all operators must share one dimension")
        self.ops = ops
        self.dim = dim
        self._squares: tuple[SparseSymmetricOperator, ...] | None = None

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @property
    def squares(self) -> tuple[SparseSymmetricOperator, ...]:
        if self._squares is None:
            self._squares = tuple(op.square() for op in self.ops)
        return self._squares

    @property
    def bandwidth(self) -> int:
        return max(op.bandwidth for op in self.ops)

    def matvecs(self, x: np.ndarray) -> list[np.ndarray]:
        return [op.matvec(x) for op in self.ops]


def matvec(op: SparseSymmetricOperator, v: StateVector) -> StateVector:
    """Matrix-vector product O v; the input is left unmodified."""
    if op.dim != len(v):
        raise ContractViolationError(
            f"operator dim {op.dim} does not match state length {len(v)}"
        )
    return StateVector(op.matvec(v.amps))


def moments(opset: OperatorSet, v: StateVector) -> Moments:
    """Normalized expectations e1_j = <v|O_j|v>/n, e2_j = |O_j v|^2/n, var = e2 - e1^2.

    Variances are clamped at zero; tiny negatives only arise from rounding.
    """
    n = v.norm2
    if n == 0.0:
        raise DegenerateStateError("moments of a zero vector are undefined")
    x = v.amps
    e1 = np.empty(len(opset))
    e2 = np.empty(len(opset))
    for j, op in enumerate(opset):
        ox = op.matvec(x)
        e1[j] = (x @ ox) / n
        e2[j] = (ox @ ox) / n
    var = np.maximum(e2 - e1 * e1, 0.0)
    return Moments(e1=e1, e2=e2, var=var)


def apply_B(opset: OperatorSet, v: StateVector, m: Moments) -> StateVector:
    """Action of the collapse generator: sum_j [2 e1_j O_j v - O_j^2 v - e2_j v]."""
    x = v.amps
    out = -float(m.e2.sum()) * x
    for j, op in enumerate(opset):
        ox = op.matvec(x)
        out += 2.0 * m.e1[j] * ox - op.matvec(ox)
    return StateVector(out)


def assemble_solve_matrix(
    opset: OperatorSet, m: Moments, dt: float
) -> SparseSymmetricOperator:
    """Implicit-step matrix A = I + (dt/2) sum_j [(O_j - e1_j I)^2 + var_j I].

    Symmetric positive definite for every dt > 0: each summand is positive
    semidefinite, so the smallest eigenvalue of A is at least 1.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    eye = sp.identity(opset.dim, format="csr")
    acc = eye * (1.0 + 0.5 * dt * float(m.var.sum()))
    for j, op in enumerate(opset):
        # square the shifted operator, so no e1^2-sized terms cancel
        centred = op.csr - m.e1[j] * eye
        acc = acc + 0.5 * dt * (centred @ centred)
    return operator_from_csr(acc)


def commutation_check(
    opset: OperatorSet, probes: int = 4, tol: float = 1e-10, seed: int = 0
) -> bool:
    """Whether all pairs commute: |O_i O_j v - O_j O_i v| <= tol * |v|.

    Dense all-pairs check for dim <= 64, seeded random probe vectors above.
    """
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    ops = opset.ops
    if opset.dim <= 64:
        dense = [op.to_dense() for op in ops]
        for i in range(len(ops)):
            for k in range(i + 1, len(ops)):
                comm = dense[i] @ dense[k] - dense[k] @ dense[i]
                # spectral norm bounds |comm v| / |v| for every v
                if np.linalg.norm(comm, 2) > tol:
                    return False
        return True
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((probes, opset.dim))
    for v in vs:
        nv = np.linalg.norm(v)
        for i in range(len(ops)):
            oiv = ops[i].matvec(v)
            for k in range(i + 1, len(ops)):
                okv = ops[k].matvec(v)
                resid = ops[i].matvec(okv) - ops[k].matvec(oiv)
                if np.linalg.norm(resid) > tol * nv:
                    return False
    return True


def exchange_operator(n_single: int) -> SparseSymmetricOperator:
    """Two-particle exchange permutation on the n^2 tensor basis: (p, q) <-> (q, p)."""
    if n_single < 2:
        raise ParameterError("n_single must be >= 2")
    n = n_single
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    lower = p < q
    rows = np.concatenate([np.arange(n) * n + np.arange(n), (p * n + q)[lower]])
    cols = np.concatenate([np.arange(n) * n + np.arange(n), (q * n + p)[lower]])
    return SparseSymmetricOperator(n * n, rows, cols, np.ones(rows.size))
