import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigentow import (
    CollapseConfig,
    ContractViolationError,
    DegenerateStateError,
    JCParams,
    Moments,
    OperatorSet,
    ParameterError,
    SparseSymmetricOperator,
    StateVector,
    apply_B,
    build_hamiltonian,
    cn_step,
    collapse,
    exchange_operator,
    moments,
)
from eigentow.collapse import _SHIFTED_BAND_LIMIT, _Stepper
from eigentow.operators import assemble_solve_matrix


def diag_set(values):
    return OperatorSet([SparseSymmetricOperator.diagonal(values)])


class TestConfig:
    def test_defaults(self):
        cfg = CollapseConfig()
        assert cfg.dt == 1.1
        assert cfg.tol == 1e-10
        assert cfg.max_iter == 100000
        assert cfg.expectation_order == "zeroth"
        assert cfg.renormalize_every_step

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"tol": 0.0},
            {"max_iter": 0},
            {"expectation_order": "second"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            CollapseConfig(**kwargs)


class TestCnStep:
    def test_two_level_example(self):
        # diag(0, 1), amplitudes (sqrt 0.8, sqrt 0.2), dt = 1
        opset = diag_set([0.0, 1.0])
        v = StateVector(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
        out = cn_step(opset, v, CollapseConfig(dt=1.0))
        np.testing.assert_allclose(out.amps, [0.967372, 0.253359], atol=1e-5)

    def test_eigenvector_is_fixed_point(self, rng):
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        w, vecs = np.linalg.eigh(a)
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        v = StateVector(vecs[:, 3])
        out = cn_step(opset, v)
        assert min(np.linalg.norm(out.amps - v.amps), np.linalg.norm(out.amps + v.amps)) < 1e-12

    def test_small_dt_matches_euler(self, rng):
        # one CN step at tiny dt reduces to x + dt*B x to first order
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        x = rng.standard_normal(6)
        v = StateVector(x)
        dt = 1e-7
        m = moments(opset, v)
        b = 2 * m.e1[0] * a - a @ a - m.e2[0] * np.eye(6)
        euler = x + dt * (b @ x)
        out = cn_step(opset, v, CollapseConfig(dt=dt, renormalize_every_step=False))
        # agreement up to the O(dt^2) midpoint correction
        np.testing.assert_allclose(out.amps, euler, atol=1e-10)

    def test_symmetric_superposition_is_stationary(self):
        # equal weight on two eigenstates gives B proportional to identity,
        # so the normalized state does not move; collapse requires asymmetry
        opset = diag_set([0.0, 1.0])
        v = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        out = cn_step(opset, v)
        out_n = out.amps / np.linalg.norm(out.amps)
        np.testing.assert_allclose(out_n, v.amps, atol=1e-14)


def _ladder(dim, bandwidth, rng):
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [np.arange(dim, dtype=float)]
    for k in range(1, bandwidth + 1):
        rows.append(np.arange(dim - k))
        cols.append(np.arange(k, dim))
        vals.append(0.1 * rng.standard_normal(dim - k))
    return SparseSymmetricOperator(
        dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def _exchange_conjugated(n, rng):
    # a tridiagonal operator carried into the exchange-permuted basis, where
    # its bandwidth n(n - 1) - 1 (89 for n = 10) lies above the banded limit
    t = SparseSymmetricOperator.from_tridiagonal(
        rng.standard_normal(n * n), rng.standard_normal(n * n - 1)
    ).to_dense()
    p = exchange_operator(n).to_dense()
    return SparseSymmetricOperator.from_dense(p @ t @ p.T)


_REFERENCE_CASES = {
    "diagonal": lambda rng: SparseSymmetricOperator.diagonal(rng.uniform(-3, 3, 40)),
    "jc_chain": lambda rng: build_hamiltonian(JCParams(60, kappa=0.1)),
    "band5_ladder": lambda rng: _ladder(80, 5, rng),
    "exchange_conjugated": lambda rng: _exchange_conjugated(10, rng),
    "shifted_1e4": lambda rng: SparseSymmetricOperator.from_tridiagonal(
        1e4 + np.arange(50.0), 0.3 * rng.standard_normal(49)
    ),
}


class TestSingleOperatorSolve:
    """cn_step on one operator against a dense solve of the SPD system."""

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_dense_reference(self, case, order, rng):
        op = _REFERENCE_CASES[case](rng)
        if case == "exchange_conjugated":
            assert op.bandwidth > _SHIFTED_BAND_LIMIT
        opset = OperatorSet([op])
        x = rng.standard_normal(op.dim)
        x /= np.linalg.norm(x)
        v = StateVector(x)
        # at the larger steps the first-order drift overshoots and clamps the
        # advanced variance to 0; dt = 0.001 keeps it positive
        for dt in (1.1, 0.1, 0.001):
            m = moments(opset, v)
            bx = apply_B(opset, v, m).amps
            m_lhs = m
            if order == "first":
                ox = op.matvec(x)
                o2x = op.matvec(ox)
                e1 = m.e1 + 2.0 * dt * np.array([ox @ bx]) / v.norm2
                e2 = m.e2 + 2.0 * dt * np.array([o2x @ bx]) / v.norm2
                m_lhs = Moments(e1=e1, e2=e2, var=np.maximum(e2 - e1 * e1, 0.0))
            a = assemble_solve_matrix(opset, m_lhs, dt).to_dense()
            expect = np.linalg.solve(a, x + 0.5 * dt * bx)
            cfg = CollapseConfig(dt=dt, expectation_order=order, renormalize_every_step=False)
            got = cn_step(opset, v, cfg).amps
            err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
            assert err <= 1e-12, f"dt={dt}: relative error {err:.2e}"


class TestNonFinite:
    def test_operator_rejects_nan_on_diagonal(self):
        diag = np.arange(50.0)
        diag[17] = np.nan
        with pytest.raises(ContractViolationError, match="row 17, col 17"):
            SparseSymmetricOperator.from_tridiagonal(diag, np.full(49, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_operator_rejects_non_finite_values(self, bad):
        with pytest.raises(ContractViolationError, match="row 1, col 2"):
            SparseSymmetricOperator(3, [0, 1, 2], [0, 2, 2], [1.0, bad, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ContractViolationError, match="amplitude entry 3 "):
            StateVector(np.array([0.5, 0.5, 0.5, bad, np.nan]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_moments_stop_at_once(self):
        # every entry is finite, but |O v|^2 overflows: the run must stop
        # before its first step instead of spending max_iter on NaNs
        opset = diag_set([0.0, 1e160])
        v = StateVector(np.array([0.6, 0.8]))
        with pytest.raises(DegenerateStateError, match="at iteration 0"):
            collapse(opset, v, CollapseConfig(max_iter=2000))


class TestCollapse:
    def test_converges_to_nearest_component(self):
        # with dt small relative to the squared spread, the component whose
        # eigenvalue sits closest to the running mean wins
        vals = np.array([0.0, 1.0, 2.5, 4.0])
        opset = diag_set(vals)
        amps = np.array([0.3, 0.8, 0.4, 0.35])
        final, report = collapse(opset, StateVector(amps), CollapseConfig(dt=0.2))
        assert report.converged
        assert np.argmax(np.abs(final.amps)) == 1
        assert abs(abs(final.amps[1]) - 1.0) < 1e-6

    def test_report_traces_aligned(self, rng):
        opset = diag_set([0.0, 1.0, 3.0])
        v = StateVector(np.array([0.2, 0.9, 0.3]))
        final, report = collapse(opset, v)
        assert len(report.residual_trace) == report.iterations + 1
        assert len(report.norm_trace) == report.iterations + 1
        assert len(report.moments_trace) == report.iterations + 1
        assert report.residual_trace[-1] <= 1e-10
        assert report.wall_time >= 0.0

    def test_each_step_contracts(self):
        # the generator is negative semidefinite, so every step shrinks the
        # squared norm of the (unit) state it acts on
        opset = diag_set([0.0, 1.0, 2.0])
        v = StateVector(np.array([0.5, 0.7, 0.5]))
        _, report = collapse(opset, v, CollapseConfig(max_iter=200, tol=1e-12))
        assert np.all(report.norm_trace[1:] <= 1.0 + 1e-12)

    def test_norm_monotone_without_renormalization(self):
        opset = diag_set([0.0, 1.0, 2.0])
        v = StateVector(np.array([0.5, 0.7, 0.5]))
        _, report = collapse(
            opset, v,
            CollapseConfig(max_iter=200, tol=1e-12, renormalize_every_step=False),
        )
        assert np.all(np.diff(report.norm_trace) <= 1e-12)

    def test_norm_law_small_dt(self):
        # d(ln n)/dt = -4 sum var, checked against one tiny explicit step
        opset = diag_set([0.0, 1.0])
        amps = np.array([np.sqrt(0.8), np.sqrt(0.2)])
        v = StateVector(amps)
        dt = 1e-3
        m = moments(opset, v)
        expected_rate = -4.0 * float(m.var.sum())
        _, report = collapse(
            opset, v, CollapseConfig(dt=dt, max_iter=1, tol=1e-300)
        )
        n0, n1 = report.norm_trace[0], report.norm_trace[1]
        measured = (np.log(n1) - np.log(n0)) / dt
        assert measured == pytest.approx(expected_rate, rel=0.01)

    def test_max_iter_exhaustion_reported(self):
        opset = diag_set([0.0, 1.0])
        v = StateVector(np.array([0.9, 0.45]))
        final, report = collapse(opset, v, CollapseConfig(max_iter=2, tol=1e-300))
        assert not report.converged
        assert report.iterations == 2

    def test_first_order_mode_agrees_on_limit(self):
        opset = diag_set([0.0, 1.0, 2.0])
        v = StateVector(np.array([0.2, 0.9, 0.37]))
        f0, r0 = collapse(opset, v, CollapseConfig(expectation_order="zeroth"))
        f1, r1 = collapse(opset, v, CollapseConfig(expectation_order="first"))
        assert r0.converged and r1.converged
        assert min(
            np.linalg.norm(f0.amps - f1.amps), np.linalg.norm(f0.amps + f1.amps)
        ) < 1e-8

    def test_renormalize_off_same_direction(self):
        opset = diag_set([0.0, 1.0, 2.0])
        v = StateVector(np.array([0.2, 0.9, 0.37]))
        f_on, r_on = collapse(opset, v, CollapseConfig(max_iter=50, tol=1e-300))
        f_off, r_off = collapse(
            opset, v,
            CollapseConfig(max_iter=50, tol=1e-300, renormalize_every_step=False),
        )
        assert not r_on.converged and not r_off.converged
        d_on = f_on.amps / f_on.norm
        d_off = f_off.amps / f_off.norm
        np.testing.assert_allclose(d_off, d_on, atol=1e-9)

    def test_multiple_commuting_operators(self, rng):
        # second commuting operator breaks the first one's degeneracy
        d1 = SparseSymmetricOperator.diagonal([1.0, 1.0, 0.0])
        d2 = SparseSymmetricOperator.diagonal([0.0, 2.0, 3.0])
        opset = OperatorSet([d1, d2])
        v = StateVector(np.array([0.6, 0.75, 0.29]))
        final, report = collapse(opset, v, CollapseConfig(dt=0.3))
        assert report.converged
        assert np.argmax(np.abs(final.amps)) == 1

    def test_degenerate_subspace_direction_preserved(self):
        # collapse into a degenerate eigenspace keeps the in-subspace
        # direction: both components share one multiplier every step
        opset = diag_set([0.0, 0.0, 1.0])
        v = StateVector(np.array([0.9, 0.7, 0.2]))
        final, report = collapse(opset, v, CollapseConfig(max_iter=5000))
        assert report.converged
        assert abs(final.amps[2]) < 1e-5
        assert final.amps[0] / final.amps[1] == pytest.approx(9.0 / 7.0, rel=1e-9)

    def test_stagnation_warning_on_exact_tie(self):
        # an exact symmetric tie pins the mean at the midpoint; the
        # direction is stationary but the residual never drops
        opset = diag_set([0.0, 2.0])
        v = StateVector(np.array([1.0, 1.0]))
        final, report = collapse(opset, v, CollapseConfig(max_iter=1500))
        assert not report.converged
        assert report.warnings
        assert "plateau" in report.warnings[0]

    def test_banded_and_general_paths_agree(self):
        # permuting the basis by the exchange operator on a 14x14 product
        # space carries a tridiagonal operator to bandwidth 181, forcing the
        # general sparse path; the physics must not change.  One operator
        # takes the complex shifted solve, the commuting pair (T, T^2) the
        # SPD one.  A diagonal operator would stay diagonal under the
        # permutation and never leave the banded path.
        n = 14
        t = SparseSymmetricOperator.from_tridiagonal(
            np.arange(float(n * n)), 0.1 * np.ones(n * n - 1)
        )
        p = exchange_operator(n).to_dense()
        x = np.random.default_rng(7).standard_normal(n * n)
        for ops in ([t], [t, t.square()]):
            opset = OperatorSet(ops)
            f1, r1 = collapse(opset, StateVector(x), CollapseConfig(max_iter=400))

            opset2 = OperatorSet(
                [SparseSymmetricOperator.from_dense(p @ op.to_dense() @ p.T) for op in ops]
            )
            assert _Stepper(opset, 1.1).banded and not _Stepper(opset2, 1.1).banded
            f2, r2 = collapse(opset2, StateVector(p @ x), CollapseConfig(max_iter=400))

            assert r1.converged == r2.converged
            np.testing.assert_allclose(p @ f1.amps, f2.amps, atol=1e-8)

    def test_shift_invariance_full_trajectory(self, rng):
        # adding beta*I to the operator leaves every iterate unchanged
        vals = np.array([0.0, 1.0, 2.5])
        v = StateVector(np.array([0.2, 0.9, 0.37]))
        f1, r1 = collapse(diag_set(vals), v, CollapseConfig(max_iter=30, tol=1e-300))
        f2, r2 = collapse(
            diag_set(vals + 5.75), v, CollapseConfig(max_iter=30, tol=1e-300)
        )
        np.testing.assert_allclose(f1.amps, f2.amps, atol=1e-12)
        np.testing.assert_allclose(r1.residual_trace, r2.residual_trace, atol=1e-12)

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=2, max_value=10),
    )
    def test_property_converges_to_some_eigenvector(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        x = rng.standard_normal(dim)
        final, report = collapse(opset, StateVector(x), CollapseConfig(max_iter=5000))
        if report.converged:
            r = a @ final.amps - (final.amps @ a @ final.amps) * final.amps
            assert np.linalg.norm(r) <= 1e-8 * (1 + np.abs(a).max())

    def test_zero_initial_state_rejected(self):
        opset = diag_set([0.0, 1.0])
        with pytest.raises(Exception):
            collapse(opset, StateVector(np.zeros(2)))
