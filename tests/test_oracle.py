import numpy as np
import pytest

from eigentow import (
    ContractViolationError,
    JCParams,
    ParameterError,
    SparseSymmetricOperator,
    StateVector,
    compare_eigvec,
    dense_eig,
    rayleigh_residual,
    tridiag_eig,
    tridiag_eigenvalues,
)
from eigentow.jaynes_cummings import _tridiag_arrays


def chain_eigenvalues(n):
    """Free chain with unit hops: 2 cos(k pi / (n+1)), ascending."""
    k = np.arange(n, 0, -1)
    return 2.0 * np.cos(k * np.pi / (n + 1))


def random_tridiag(rng, n):
    return rng.standard_normal(n), rng.standard_normal(n - 1)


class TestDenseEig:
    def test_two_level_mixer(self):
        op = SparseSymmetricOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        dec = dense_eig(op)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        # sign gauge: the largest-magnitude component is positive
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-14)
        np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-14)

    def test_block_diagonal_decouples(self):
        a = np.zeros((4, 4))
        a[:2, :2] = [[0.0, 2.0], [2.0, 0.0]]
        a[2:, 2:] = [[5.0, 0.0], [0.0, 7.0]]
        dec = dense_eig(SparseSymmetricOperator.from_dense(a))
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 2.0, 5.0, 7.0], atol=1e-13)
        # eigenvectors of one block have no weight on the other
        assert np.abs(dec.eigenvectors[2:, :2]).max() < 1e-13

    def test_matches_chain_closed_form(self):
        n = 24
        op = SparseSymmetricOperator.from_tridiagonal(np.zeros(n), np.ones(n - 1))
        dec = dense_eig(op)
        np.testing.assert_allclose(dec.eigenvalues, chain_eigenvalues(n), atol=1e-12)

    def test_invariants_random(self, rng):
        for dim in (3, 8, 24, 64):
            a = rng.standard_normal((dim, dim))
            a = (a + a.T) / 2
            dec = dense_eig(SparseSymmetricOperator.from_dense(a))
            scale = np.abs(a).max() + 1.0
            assert np.all(np.diff(dec.eigenvalues) >= -1e-12 * scale)
            v = dec.eigenvectors
            np.testing.assert_allclose(v.T @ v, np.eye(dim), atol=1e-12)
            np.testing.assert_allclose(
                v @ np.diag(dec.eigenvalues) @ v.T, a, atol=1e-11 * scale
            )

    def test_dimension_guard(self):
        big = SparseSymmetricOperator.identity(4097)
        with pytest.raises(ParameterError):
            dense_eig(big)

    def test_single_entry(self):
        dec = dense_eig(SparseSymmetricOperator.diagonal([3.5]))
        assert dec.eigenvalues[0] == 3.5
        assert dec.eigenvectors[0, 0] == 1.0


class TestTridiagEigenvalues:
    def test_chain_closed_form(self):
        n = 30
        vals = tridiag_eigenvalues(np.zeros(n), np.ones(n - 1))
        np.testing.assert_allclose(vals, chain_eigenvalues(n), atol=1e-12)

    def test_exact_zero_eigenvalue_counted(self):
        # odd chain has an exact 0 eigenvalue that lands on a bisection pivot
        n = 7
        vals = tridiag_eigenvalues(np.zeros(n), np.ones(n - 1))
        np.testing.assert_allclose(vals, chain_eigenvalues(n), atol=1e-12)
        assert vals[3] == pytest.approx(0.0, abs=1e-13)

    def test_subset_matches_full(self, rng):
        d, e = random_tridiag(rng, 40)
        full = tridiag_eigenvalues(d, e)
        some = tridiag_eigenvalues(d, e, indices=[0, 7, 25, 39])
        np.testing.assert_allclose(some, full[[0, 7, 25, 39]], atol=1e-12)

    def test_matches_lapack(self, rng):
        for n in (5, 17, 64, 200):
            d, e = random_tridiag(rng, n)
            mine = tridiag_eigenvalues(d, e)
            ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            span = ref[-1] - ref[0] + 1.0
            np.testing.assert_allclose(mine, ref, atol=1e-11 * span)

    def test_disconnected_blocks(self):
        # zero couplings split the matrix; eigenvalues are the union
        d = np.array([3.0, -1.0, 2.0, 2.0])
        e = np.array([0.0, 1.0, 0.0])
        vals = tridiag_eigenvalues(d, e)
        expect = np.sort([3.0, -1.0 , 2.0, 2.0])
        expect[0:2] = [-1.3027756377319946, 2.0]  # middle block (-1,2) splits
        ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        np.testing.assert_allclose(vals, ref, atol=1e-12)

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            tridiag_eigenvalues([1.0, 2.0], [0.5], indices=[2])
        with pytest.raises(ParameterError):
            tridiag_eigenvalues([1.0, 2.0], [0.5], indices=[-1])
        with pytest.raises(ContractViolationError):
            tridiag_eigenvalues([1.0, 2.0], [0.5, 0.5])


class TestTridiagEig:
    def test_full_decomposition_invariants(self, rng):
        for n in (6, 30, 100):
            d, e = random_tridiag(rng, n)
            dec = tridiag_eig(d, e)
            a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            v = dec.eigenvectors
            span = dec.eigenvalues[-1] - dec.eigenvalues[0] + 1.0
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-11)
            resid = a @ v - v * dec.eigenvalues
            assert np.abs(resid).max() < 1e-11 * span

    def test_subset_vectors(self, rng):
        d, e = random_tridiag(rng, 50)
        dec = tridiag_eig(d, e, indices=[3, 20])
        assert dec.eigenvalues.shape == (2,)
        assert dec.eigenvectors.shape == (50, 2)
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        for i in range(2):
            v = dec.eigenvectors[:, i]
            lam = dec.eigenvalues[i]
            assert np.linalg.norm(a @ v - lam * v) < 1e-10 * (np.abs(a).max() + 1)

    def test_degenerate_cluster_orthogonal(self):
        # eigenvalues split by 1e-14 of the span still give an orthonormal pair
        d = np.array([2.0, 2.0, 2.0, 2.0])
        e = np.array([0.0, 1e-14, 0.0])
        dec = tridiag_eig(d, e)
        v = dec.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        resid = a @ v - v * dec.eigenvalues
        assert np.abs(resid).max() < 1e-12

    def test_fully_degenerate_diagonal(self):
        dec = tridiag_eig(np.full(5, 1.5), np.zeros(4))
        np.testing.assert_allclose(dec.eigenvalues, np.full(5, 1.5))
        np.testing.assert_allclose(
            dec.eigenvectors.T @ dec.eigenvectors, np.eye(5), atol=1e-14
        )

    def test_agrees_with_dense_on_jc(self):
        p = JCParams(80, 0.1)
        diag, off = _tridiag_arrays(p)
        dec_t = tridiag_eig(diag, off)
        dec_d = dense_eig(build_op(diag, off))
        np.testing.assert_allclose(
            dec_t.eigenvalues, dec_d.eigenvalues, atol=1e-10 * np.abs(diag).max()
        )
        for i in range(p.dim):
            assert compare_eigvec(dec_t.vector(i), dec_d.vector(i)) < 1e-8


def build_op(diag, off):
    return SparseSymmetricOperator.from_tridiagonal(diag, off)


class TestNonFiniteInput:
    """Non-finite entries fail fast and name the first bad entry."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tridiag_diagonal(self, bad):
        for solver in (tridiag_eigenvalues, tridiag_eig):
            with pytest.raises(ContractViolationError, match=r"diagonal entry 1 "):
                solver([1.0, bad, 3.0, bad], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tridiag_offdiag(self, bad):
        for solver in (tridiag_eigenvalues, tridiag_eig):
            with pytest.raises(ContractViolationError, match=r"offdiag entry 2 "):
                solver([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, bad], indices=[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_diagonal(self, bad):
        op = SparseSymmetricOperator.diagonal([1.0, 2.0, bad])
        with pytest.raises(ContractViolationError, match=r"entry \(2, 2\)"):
            dense_eig(op)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_offdiagonal(self, bad):
        op = SparseSymmetricOperator(
            dim=3,
            rows=np.array([0, 0, 1, 2]),
            cols=np.array([0, 2, 1, 2]),
            vals=np.array([1.0, bad, 2.0, 3.0]),
        )
        with pytest.raises(ContractViolationError, match=r"entry \(0, 2\)"):
            dense_eig(op)


class TestIndexRuns:
    def test_scattered_indices_match_full(self, rng):
        # one LAPACK call per contiguous run; the pieces must line up
        d, e = random_tridiag(rng, 60)
        full = tridiag_eig(d, e)
        ks = [0, 1, 2, 17, 30, 31, 59]
        some = tridiag_eig(d, e, indices=[31, 0, 59, 2, 17, 1, 30, 2])
        np.testing.assert_allclose(some.eigenvalues, full.eigenvalues[ks], atol=1e-12)
        for col, k in enumerate(ks):
            assert compare_eigvec(some.vector(col), full.vector(k)) < 1e-10
        np.testing.assert_allclose(
            tridiag_eigenvalues(d, e, indices=ks), full.eigenvalues[ks], atol=1e-12
        )

    def test_single_entry(self):
        assert tridiag_eigenvalues([2.5], []).tolist() == [2.5]
        dec = tridiag_eig([2.5], [], indices=[0])
        assert dec.eigenvalues.tolist() == [2.5]
        assert dec.eigenvectors.tolist() == [[1.0]]


class TestCompareEigvec:
    def test_sign_gauge_invariant(self):
        v = StateVector(np.array([0.6, 0.8]))
        assert compare_eigvec(v, StateVector(np.array([-0.6, -0.8]))) == 0.0

    def test_requires_unit_norm(self):
        with pytest.raises(ContractViolationError):
            compare_eigvec(
                StateVector(np.array([1.0, 1.0])), StateVector(np.array([1.0, 0.0]))
            )

    def test_requires_equal_length(self):
        with pytest.raises(ContractViolationError):
            compare_eigvec(StateVector.basis(2, 0), StateVector.basis(3, 0))


class TestRayleighResidual:
    def test_exact_eigenvector(self):
        op = SparseSymmetricOperator.diagonal([1.0, 4.0])
        rho, r = rayleigh_residual(op, StateVector.basis(2, 1))
        assert rho == 4.0
        assert r == 0.0

    def test_mixed_state(self):
        op = SparseSymmetricOperator.diagonal([0.0, 1.0])
        v = StateVector(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
        rho, r = rayleigh_residual(op, v)
        assert rho == pytest.approx(0.2, abs=1e-14)
        # |O v - rho v|^2 = 0.8*rho^2 + 0.2*(1-rho)^2
        expect = np.sqrt(0.8 * 0.04 + 0.2 * 0.64)
        assert r == pytest.approx(expect, abs=1e-14)

    def test_residual_bounds_eigenvalue_error(self, rng):
        # |rho - lambda_nearest| <= r for symmetric operators
        d, e = random_tridiag(rng, 20)
        op = build_op(d, e)
        vals = tridiag_eigenvalues(d, e)
        x = rng.standard_normal(20)
        rho, r = rayleigh_residual(op, StateVector(x))
        assert np.abs(vals - rho).min() <= r + 1e-13

    def test_zero_vector_rejected(self):
        op = SparseSymmetricOperator.identity(2)
        with pytest.raises(ContractViolationError):
            rayleigh_residual(op, StateVector(np.zeros(2)))


class TestInvariantSweep:
    """Randomized decomposition checks, a faster version of the full gate."""

    dims = (4, 16, 64)
    seeds = 10

    def test_tridiag_sweep(self):
        for dim in self.dims:
            rng = np.random.default_rng(1000 + dim)
            for _ in range(self.seeds):
                d, e = rng.standard_normal(dim), rng.standard_normal(dim - 1)
                dec = tridiag_eig(d, e)
                a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                span = dec.eigenvalues[-1] - dec.eigenvalues[0] + 1.0
                v = dec.eigenvectors
                assert np.abs(v.T @ v - np.eye(dim)).max() < 1e-10
                assert np.abs(a @ v - v * dec.eigenvalues).max() < 1e-10 * span
                assert np.all(np.diff(dec.eigenvalues) >= -1e-12 * span)

    def test_dense_sweep(self):
        for dim in self.dims:
            rng = np.random.default_rng(2000 + dim)
            for _ in range(self.seeds):
                a = rng.standard_normal((dim, dim))
                a = (a + a.T) / 2
                dec = dense_eig(SparseSymmetricOperator.from_dense(a))
                scale = np.abs(a).max() + 1.0
                v = dec.eigenvectors
                assert np.abs(v.T @ v - np.eye(dim)).max() < 1e-11
                assert np.abs(v @ np.diag(dec.eigenvalues) @ v.T - a).max() < 1e-10 * scale
