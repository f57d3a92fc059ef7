import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigentow import (
    ContractViolationError,
    Moments,
    OperatorSet,
    SparseSymmetricOperator,
    StateVector,
    apply_B,
    combine_operators,
    commutation_check,
    exchange_operator,
    moments,
)
from eigentow.operators import assemble_solve_matrix, matvec


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


@st.composite
def symmetric_matrices(draw, max_dim=8):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_symmetric(rng, dim)


class TestSparseSymmetricOperator:
    def test_from_dense_round_trip(self, rng):
        a = random_symmetric(rng, 6)
        op = SparseSymmetricOperator.from_dense(a)
        np.testing.assert_allclose(op.to_dense(), a, atol=1e-15)

    def test_rejects_lower_triangle_entries(self):
        with pytest.raises(ValueError):
            SparseSymmetricOperator(
                dim=3,
                rows=np.array([2]),
                cols=np.array([0]),
                vals=np.array([1.0]),
            )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymmetricOperator(
                dim=2,
                rows=np.array([0, 0]),
                cols=np.array([1, 1]),
                vals=np.array([1.0, 2.0]),
            )

    def test_rejects_duplicates_in_unsorted_input(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymmetricOperator(
                dim=2,
                rows=np.array([0, 0, 1, 0]),
                cols=np.array([1, 0, 1, 1]),
                vals=np.ones(4),
            )

    @pytest.mark.parametrize(
        "rows, cols, match",
        [
            ([0, 1], [0, 3], "out of range"),
            ([-1, 0], [0, 0], "out of range"),
            ([0, 1, 2], [0, 2, 1], "row <= col"),
        ],
        ids=["col_past_dim", "negative_row", "row_above_col"],
    )
    def test_sorted_input_still_validated(self, rows, cols, match):
        # the keys row*dim + col already increase, so no sort runs
        with pytest.raises(ValueError, match=match):
            SparseSymmetricOperator(
                dim=3, rows=np.array(rows), cols=np.array(cols), vals=np.ones(len(rows))
            )

    def test_rejects_asymmetric_dense(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            SparseSymmetricOperator.from_dense(a)

    def test_entries_canonicalized(self):
        # scrambled input comes out sorted by (row, col)
        op = SparseSymmetricOperator(
            dim=3,
            rows=np.array([1, 0, 0]),
            cols=np.array([2, 1, 0]),
            vals=np.array([3.0, 2.0, 1.0]),
        )
        assert list(op.rows) == [0, 0, 1]
        assert list(op.cols) == [0, 1, 2]
        assert list(op.vals) == [1.0, 2.0, 3.0]

    def test_identity_and_diagonal(self):
        eye = SparseSymmetricOperator.identity(4)
        np.testing.assert_array_equal(eye.to_dense(), np.eye(4))
        d = SparseSymmetricOperator.diagonal([1.0, 0.0, -2.0])
        np.testing.assert_array_equal(d.to_dense(), np.diag([1.0, 0.0, -2.0]))
        assert d.nnz == 2  # zero entries dropped

    def test_tridiagonal_bandwidth(self):
        op = SparseSymmetricOperator.from_tridiagonal([1.0, 2.0, 3.0], [0.5, 0.0])
        assert op.bandwidth == 1
        diag_only = SparseSymmetricOperator.from_tridiagonal([1.0, 2.0], [0.0])
        assert diag_only.bandwidth == 0

    @given(symmetric_matrices())
    def test_matvec_matches_dense(self, a):
        op = SparseSymmetricOperator.from_dense(a)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(a.shape[0])
        np.testing.assert_allclose(op.matvec(x), a @ x, atol=1e-12 * (1 + np.abs(a).max()))

    @given(symmetric_matrices(max_dim=6))
    def test_square_matches_dense(self, a):
        op = SparseSymmetricOperator.from_dense(a)
        np.testing.assert_allclose(op.square().to_dense(), a @ a, atol=1e-12)

    def test_upper_banded_layout(self):
        op = SparseSymmetricOperator.from_tridiagonal([1.0, 2.0, 3.0], [4.0, 5.0])
        ab = op.upper_banded(1)
        np.testing.assert_array_equal(ab[1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ab[0], [0.0, 4.0, 5.0])


class TestCombine:
    def test_linear_combination(self, rng):
        a = random_symmetric(rng, 5)
        b = random_symmetric(rng, 5)
        opa = SparseSymmetricOperator.from_dense(a)
        opb = SparseSymmetricOperator.from_dense(b)
        out = combine_operators([(2.0, opa), (-0.5, opb)])
        np.testing.assert_allclose(out.to_dense(), 2 * a - 0.5 * b, atol=1e-13)

    def test_dimension_mismatch(self):
        a = SparseSymmetricOperator.identity(2)
        b = SparseSymmetricOperator.identity(3)
        with pytest.raises(ValueError):
            combine_operators([(1.0, a), (1.0, b)])


class TestStateVector:
    def test_basis(self):
        v = StateVector.basis(4, 2)
        np.testing.assert_array_equal(v.amps, [0, 0, 1, 0])
        assert v.norm == 1.0

    def test_normalized(self):
        v = StateVector(np.array([3.0, 4.0]))
        assert v.norm == 5.0
        assert abs(v.normalized().norm - 1.0) < 1e-15

    def test_flattens_input(self):
        v = StateVector(np.ones((2, 2)))
        assert v.amps.shape == (4,)

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            StateVector(np.array([]))


class TestMoments:
    def test_diagonal_closed_form(self):
        op = SparseSymmetricOperator.diagonal([0.0, 1.0])
        v = StateVector(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
        m = moments(OperatorSet([op]), v)
        assert m.e1[0] == pytest.approx(0.2, abs=1e-14)
        assert m.e2[0] == pytest.approx(0.2, abs=1e-14)
        assert m.var[0] == pytest.approx(0.16, abs=1e-14)

    @given(symmetric_matrices())
    def test_variance_nonnegative(self, a):
        op = SparseSymmetricOperator.from_dense(a)
        rng = np.random.default_rng(2)
        v = StateVector(rng.standard_normal(a.shape[0]) + 0.01)
        m = moments(OperatorSet([op]), v)
        assert np.all(m.var >= 0)

    def test_norm_independent(self, rng):
        a = random_symmetric(rng, 5)
        op = SparseSymmetricOperator.from_dense(a)
        x = rng.standard_normal(5)
        m1 = moments(OperatorSet([op]), StateVector(x))
        m2 = moments(OperatorSet([op]), StateVector(3.7 * x))
        np.testing.assert_allclose(m1.e1, m2.e1, rtol=1e-12)
        np.testing.assert_allclose(m1.var, m2.var, rtol=1e-10, atol=1e-12)


def dense_B(a, x):
    n = x @ x
    e1 = x @ a @ x / n
    e2 = x @ a @ a @ x / n
    return 2 * e1 * a - a @ a - e2 * np.eye(a.shape[0])


class TestApplyB:
    @given(symmetric_matrices())
    def test_matches_dense_formula(self, a):
        op = SparseSymmetricOperator.from_dense(a)
        opset = OperatorSet([op])
        rng = np.random.default_rng(3)
        x = rng.standard_normal(a.shape[0]) + 0.01
        v = StateVector(x)
        out = apply_B(opset, v, moments(opset, v))
        scale = 1 + np.abs(a).max() ** 2
        np.testing.assert_allclose(out.amps, dense_B(a, x) @ x, atol=1e-10 * scale)

    @given(symmetric_matrices(max_dim=6))
    def test_negative_semidefinite(self, a):
        # B = -(O - e1)^2 - var*I for any state's moments
        op = SparseSymmetricOperator.from_dense(a)
        opset = OperatorSet([op])
        rng = np.random.default_rng(4)
        x = rng.standard_normal(a.shape[0]) + 0.01
        m = moments(opset, StateVector(x))
        b = 2 * m.e1[0] * a - a @ a - m.e2[0] * np.eye(a.shape[0])
        assert np.linalg.eigvalsh(b).max() <= 1e-10 * (1 + np.abs(a).max() ** 2)

    def test_shift_invariance(self, rng):
        # B(O + beta*I) == B(O): the generator sees only the spread around e1
        a = random_symmetric(rng, 6)
        x = rng.standard_normal(6)
        v = StateVector(x)
        beta = 2.71
        op1 = SparseSymmetricOperator.from_dense(a)
        op2 = SparseSymmetricOperator.from_dense(a + beta * np.eye(6))
        s1, s2 = OperatorSet([op1]), OperatorSet([op2])
        out1 = apply_B(s1, v, moments(s1, v))
        out2 = apply_B(s2, v, moments(s2, v))
        np.testing.assert_allclose(out1.amps, out2.amps, atol=1e-10)

    def test_scale_covariance(self, rng):
        # B(alpha*O) == alpha^2 * B(O)
        a = random_symmetric(rng, 6)
        x = rng.standard_normal(6)
        v = StateVector(x)
        alpha = 1.7
        s1 = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        s2 = OperatorSet([SparseSymmetricOperator.from_dense(alpha * a)])
        out1 = apply_B(s1, v, moments(s1, v))
        out2 = apply_B(s2, v, moments(s2, v))
        np.testing.assert_allclose(out2.amps, alpha**2 * out1.amps, rtol=1e-10, atol=1e-12)


class TestAssembleSolveMatrix:
    def test_spd_for_various_dt(self, rng):
        for dt in (0.1, 1.1, 10.0):
            for dim in (2, 8, 32, 64):
                a = random_symmetric(rng, dim)
                opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
                v = StateVector(rng.standard_normal(dim))
                m = moments(opset, v)
                acc = assemble_solve_matrix(opset, m, dt).to_dense()
                np.linalg.cholesky(acc)  # raises if not SPD

    def test_matches_formula(self, rng):
        a = random_symmetric(rng, 5)
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        v = StateVector(rng.standard_normal(5))
        m = moments(opset, v)
        dt = 1.1
        b = 2 * m.e1[0] * a - a @ a - m.e2[0] * np.eye(5)
        expect = np.eye(5) - dt * b
        np.testing.assert_allclose(
            assemble_solve_matrix(opset, m, dt).to_dense(), expect, atol=1e-12
        )


class TestOperatorSet:
    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            OperatorSet([])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ContractViolationError):
            OperatorSet(
                [SparseSymmetricOperator.identity(2), SparseSymmetricOperator.identity(3)]
            )

    def test_matvec_wrapper(self, rng):
        a = random_symmetric(rng, 4)
        op = SparseSymmetricOperator.from_dense(a)
        v = StateVector(rng.standard_normal(4))
        np.testing.assert_allclose(matvec(op, v).amps, a @ v.amps, atol=1e-13)


class TestCommutation:
    def test_commuting_pair_passes(self, rng):
        a = random_symmetric(rng, 6)
        opset = OperatorSet(
            [
                SparseSymmetricOperator.from_dense(a),
                SparseSymmetricOperator.from_dense(a @ a),
            ]
        )
        assert commutation_check(opset)

    def test_noncommuting_pair_fails(self, rng):
        a = random_symmetric(rng, 6)
        b = random_symmetric(rng, 6)
        opset = OperatorSet(
            [SparseSymmetricOperator.from_dense(a), SparseSymmetricOperator.from_dense(b)]
        )
        assert not commutation_check(opset)

    def test_probe_mode_large_dim(self, rng):
        d1 = SparseSymmetricOperator.diagonal(rng.standard_normal(100))
        d2 = SparseSymmetricOperator.diagonal(rng.standard_normal(100))
        assert commutation_check(OperatorSet([d1, d2]))


class TestExchangeOperator:
    def test_is_permutation_symmetry(self):
        n = 3
        p = exchange_operator(n)
        dense = p.to_dense()
        # exchanging twice is the identity
        np.testing.assert_allclose(dense @ dense, np.eye(n * n), atol=1e-14)
        # it permutes basis |p,q> -> |q,p>
        for a in range(n):
            for b in range(n):
                e = np.zeros(n * n)
                e[a * n + b] = 1.0
                out = dense @ e
                assert out[b * n + a] == 1.0
