"""Sparse symmetric operators, operator sets, states, and the collapse generator.

The collapse dynamics evolves a state under the generator

    B = sum_j [2*E1_j*O_j - O_j^2 - E2_j*I]
      = -sum_j [(O_j - E1_j*I)^2 + Var_j*I],

which is negative semidefinite and vanishes exactly on common eigenvectors
of the operator set {O_j}.  `_generator` is the one place that evaluates it:
`moments`, `apply_B` and the collapse loop all read its record.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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
            # row-major keys; input already in strictly increasing order skips the sort
            keys = self.rows * self.dim + self.cols
            if np.any(keys[1:] <= keys[:-1]):
                order = np.argsort(keys, kind="stable")
                self.rows = self.rows[order]
                self.cols = self.cols[order]
                self.vals = self.vals[order]
                if np.any(np.diff(keys[order]) == 0):
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
            self._csr = _symmetric_csr(self.dim, self.rows, self.cols, self.vals)
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


def _symmetric_csr(
    dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> sp.csr_matrix:
    """Canonical CSR of the symmetric matrix whose upper triangle is (rows, cols, vals)."""
    off = rows != cols
    r = np.concatenate([rows, cols[off]])
    c = np.concatenate([cols, rows[off]])
    v = np.concatenate([vals, vals[off]])
    return sp.coo_matrix((v, (r, c)), shape=(dim, dim)).tocsr()


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


class _Blend:
    """The blends (1 - t) a + t b of two operators on their union pattern, built once.

    Each knot's values are aligned to the union of the two upper triangles,
    and `slots` maps every entry of the symmetric CSR to its triplet, so a
    blend is one affine combination of two arrays and a gather.  The result
    equals combine_operators([(1 - t, a), (t, b)]) bitwise: every entry is
    0 + (1 - t) a_ij + t b_ij, summed in the order the sparse adds use.
    """

    def __init__(self, a: SparseSymmetricOperator, b: SparseSymmetricOperator):
        self.dim = a.dim
        ka, kb = a.rows * a.dim + a.cols, b.rows * b.dim + b.cols
        keys = np.union1d(ka, kb)
        self.rows, self.cols = np.divmod(keys, self.dim)
        self.va = np.zeros(keys.size)
        self.va[np.searchsorted(keys, ka)] = a.vals
        self.vb = np.zeros(keys.size)
        self.vb[np.searchsorted(keys, kb)] = b.vals
        # the CSR's data carries each entry's triplet index through the conversion
        pattern = _symmetric_csr(
            self.dim, self.rows, self.cols, np.arange(keys.size, dtype=np.float64)
        )
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.slots = pattern.data.astype(np.intp)

    def at(self, t: float) -> SparseSymmetricOperator:
        vals = (1.0 - t) * self.va + t * self.vb
        if not vals.all():
            # an entry cancelled exactly; combine_operators drops it, so drop it too
            keep = vals != 0.0
            return SparseSymmetricOperator(self.dim, self.rows[keep], self.cols[keep], vals[keep])
        csr = sp.csr_matrix(
            (vals[self.slots], self.indices, self.indptr), shape=(self.dim, self.dim)
        )
        return SparseSymmetricOperator(self.dim, self.rows, self.cols, vals, _csr=csr)


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
    """Per-operator first and second moments and variances (a row per iteration in a trace)."""

    e1: np.ndarray
    e2: np.ndarray
    var: np.ndarray


class OperatorSet:
    """Nonempty family of same-dimension symmetric operators."""

    def __init__(self, ops: Sequence[SparseSymmetricOperator]):
        ops = tuple(ops)
        if not ops:
            raise ContractViolationError("operator set must be nonempty")
        dim = ops[0].dim
        if any(op.dim != dim for op in ops):
            raise ContractViolationError("all operators must share one dimension")
        self.ops = ops
        self.dim = dim

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def matvec(op: SparseSymmetricOperator, v: StateVector) -> StateVector:
    """Matrix-vector product O v; the input is left unmodified."""
    if op.dim != len(v):
        raise ContractViolationError(
            f"operator dim {op.dim} does not match state length {len(v)}"
        )
    return StateVector(op.matvec(v.amps))


class _Generator(NamedTuple):
    """The collapse generator evaluated at one state x."""

    norm2: float  # |x|^2
    m: Moments
    bx: np.ndarray  # B x
    residual: float  # |B x| / |x|


def _generator(opset: OperatorSet, x: np.ndarray, m: Moments | None = None) -> _Generator:
    """Moments and B x from two matvecs per operator, evaluated centred.

    With y_j = O_j x - e1_j x, var_j = |y_j|^2/n and
    B x = -sum_j [O_j y_j - e1_j y_j + var_j x], so no terms of size e1^2
    cancel and, up to rounding, O_j -> O_j + c I leaves the residual as it is.
    B is built from the given moments' e1 and var, or from x's own when m is
    None.
    """
    n = float(x @ x)
    if m is None:
        if n == 0.0:
            raise DegenerateStateError("moments of a zero vector are undefined")
        e1 = np.empty(len(opset))
        var = np.empty(len(opset))
    else:
        e1, var = m.e1, m.var
    acc = None  # sum_j (O_j - e1_j) y_j, centred in place in the matvecs' outputs
    for j, op in enumerate(opset):
        y = op.matvec(x)
        if m is None:
            e1[j] = (x @ y) / n
        y -= e1[j] * x
        if m is None:
            var[j] = (y @ y) / n
        oy = op.matvec(y)
        oy -= e1[j] * y
        acc = oy if acc is None else acc + oy
    acc += float(var.sum()) * x
    bx = np.negative(acc, out=acc)
    if m is None:
        m = Moments(e1=e1, e2=var + e1 * e1, var=var)
    # a zero x, reachable only with given moments, has B x = 0
    residual = float(np.linalg.norm(bx)) / np.sqrt(n) if n else 0.0
    return _Generator(n, m, bx, residual)


def moments(opset: OperatorSet, v: StateVector) -> Moments:
    """Normalized expectations e1_j = <v|O_j|v>/n and var_j = |O_j v - e1_j v|^2/n.

    e2_j = var_j + e1_j^2.  The variance is a sum of squares, never negative.
    """
    return _generator(opset, v.amps).m


def apply_B(opset: OperatorSet, v: StateVector, m: Moments) -> StateVector:
    """Action of the collapse generator: -sum_j [(O_j - e1_j)^2 v + var_j v]."""
    return StateVector(_generator(opset, v.amps, m).bx)


def assemble_solve_matrix(
    opset: OperatorSet, m: Moments, dt: float
) -> SparseSymmetricOperator:
    """Implicit-step matrix A = I - dt B(m) = I + dt sum_j [(O_j - e1_j I)^2 + var_j I].

    Symmetric positive definite for every dt > 0: each summand is positive
    semidefinite, so the smallest eigenvalue of A is at least 1.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be finite and positive, got {dt}")
    eye = sp.identity(opset.dim, format="csr")
    acc = eye * (1.0 + dt * float(m.var.sum()))
    for j, op in enumerate(opset):
        # square the shifted operator, so no e1^2-sized terms cancel
        centred = op.csr - m.e1[j] * eye
        acc = acc + dt * (centred @ centred)
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
