import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eigentow import (
    CollapseConfig,
    ContractViolationError,
    DegenerateStateError,
    JCParams,
    OperatorSet,
    ParameterError,
    SparseSymmetricOperator,
    StateVector,
    apply_B,
    build_hamiltonian,
    collapse,
    combine_operators,
    exchange_operator,
    implicit_step,
    moments,
)
from eigentow.collapse import _SHIFTED_BAND_LIMIT, _Stepper, _take_step
from eigentow.operators import assemble_solve_matrix


def diag_set(values):
    return OperatorSet([SparseSymmetricOperator.diagonal(values)])


class TestConfig:
    def test_defaults(self):
        cfg = CollapseConfig()
        assert cfg.dt == 1.1
        assert cfg.tol == 1e-10
        assert cfg.max_iter == 100000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"tol": 0.0},
            {"max_iter": 0},
            *({name: bad} for name in ("dt", "tol") for bad in (np.nan, np.inf, -np.inf)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            CollapseConfig(**kwargs)


class TestCnStep:
    """Single implicit-Euler steps, implicit_step."""

    def test_two_level_example(self):
        # diag(0, 1), amplitudes (sqrt 0.8, sqrt 0.2), dt = 1: e1 = 0.2 and
        # var = 0.16, so A = I + (diag(0, 1) - 0.2)^2 + 0.16 = diag(1.2, 1.8)
        # and A^-1 x is proportional to (3, 1)
        opset = diag_set([0.0, 1.0])
        v = StateVector(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
        out = implicit_step(opset, v, CollapseConfig(dt=1.0))
        np.testing.assert_allclose(out.amps, np.array([3.0, 1.0]) / np.sqrt(10), atol=1e-12)

    def test_eigenvector_is_fixed_point(self, rng):
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        w, vecs = np.linalg.eigh(a)
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        v = StateVector(vecs[:, 3])
        out = implicit_step(opset, v)
        assert min(np.linalg.norm(out.amps - v.amps), np.linalg.norm(out.amps + v.amps)) < 1e-12

    def test_small_dt_matches_euler(self, rng):
        # one implicit step at tiny dt reduces to x + dt*B x to first order
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        opset = OperatorSet([SparseSymmetricOperator.from_dense(a)])
        x = rng.standard_normal(6)
        v = StateVector(x)
        dt = 1e-7
        m = moments(opset, v)
        b = 2 * m.e1[0] * a - a @ a - m.e2[0] * np.eye(6)
        euler = x + dt * (b @ x)
        out = implicit_step(opset, v, CollapseConfig(dt=dt))
        # the directions agree up to the O(dt^2) correction dt^2 B^2 x
        np.testing.assert_allclose(out.amps, euler / np.linalg.norm(euler), atol=1e-10)

    def test_symmetric_superposition_is_stationary(self):
        # equal weight on two eigenstates gives B proportional to identity,
        # so the normalized state does not move; collapse requires asymmetry
        opset = diag_set([0.0, 1.0])
        v = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        out = implicit_step(opset, v)
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


# the solve each reference case takes, by the bandwidth of its operator
_REFERENCE_PATHS = {
    "diagonal": ("complex gbsv", 0),
    "jc_chain": ("complex gtsv", 1),
    "band5_ladder": ("complex gbsv", 5),
    "exchange_conjugated": ("complex splu", 89),
    "shifted_1e4": ("complex gtsv", 1),
}


class TestSingleOperatorSolve:
    """implicit_step on one operator against a dense solve of (I - dt B(m)) x' = x."""

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_report_names_solve_path(self, case, rng):
        op = _REFERENCE_CASES[case](rng)
        _, report = collapse(
            OperatorSet([op]), StateVector(rng.standard_normal(op.dim)), CollapseConfig(max_iter=2)
        )
        assert (report.solve_path, report.bandwidth) == _REFERENCE_PATHS[case]

    # "zeroth": the step freezes the moments at the current state
    @pytest.mark.parametrize("order", ["zeroth"])
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_dense_reference(self, case, order, rng):
        op = _REFERENCE_CASES[case](rng)
        if case == "exchange_conjugated":
            assert op.bandwidth > _SHIFTED_BAND_LIMIT
        opset = OperatorSet([op])
        x = rng.standard_normal(op.dim)
        x /= np.linalg.norm(x)
        v = StateVector(x)
        for dt in (1.1, 0.1, 0.001):
            m = moments(opset, v)
            a = assemble_solve_matrix(opset, m, dt).to_dense()
            expect = np.linalg.solve(a, x)
            expect /= np.linalg.norm(expect)
            got = implicit_step(opset, v, CollapseConfig(dt=dt)).amps
            err = np.linalg.norm(got - expect)
            assert err <= 1e-12, f"dt={dt}: relative error {err:.2e}"


class TestMultiOperatorSolve:
    """implicit_step on a pair of operators far from the origin against a dense solve."""

    @pytest.mark.parametrize("permuted", [False, True], ids=["banded", "splu"])
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e3, 1e4])
    def test_matches_dense_reference(self, offset, permuted, rng):
        # a tridiagonal operator paired with the identity; the exchange
        # permutation on a 14x14 product space widens its squares past the
        # banded limit, so the SPD system goes to the sparse LU
        n = 14
        ops = [
            SparseSymmetricOperator.from_tridiagonal(
                offset + np.arange(float(n * n)), 0.3 * rng.standard_normal(n * n - 1)
            ),
            SparseSymmetricOperator.identity(n * n),
        ]
        x = rng.standard_normal(n * n)
        x /= np.linalg.norm(x)
        if permuted:
            p = exchange_operator(n).to_dense()
            ops = [SparseSymmetricOperator.from_dense(p @ op.to_dense() @ p.T) for op in ops]
            x = p @ x
        opset = OperatorSet(ops)
        v = StateVector(x)
        dt = 0.1
        m = moments(opset, v)
        assert _Stepper(opset, dt, m.e1).banded != permuted
        _, report = collapse(opset, v, CollapseConfig(dt=dt, max_iter=1))
        assert report.solve_path == ("real splu" if permuted else "spd banded")
        a = assemble_solve_matrix(opset, m, dt).to_dense()
        expect = np.linalg.solve(a, x)
        expect /= np.linalg.norm(expect)
        got = implicit_step(opset, v, CollapseConfig(dt=dt)).amps
        err = np.linalg.norm(got - expect)
        assert err <= 1e-12, f"relative error {err:.2e}"


class TestBandedBuffers:
    """One _Stepper reuses its LAPACK buffers across steps without carrying state."""

    @pytest.mark.parametrize(
        "make",
        [
            _REFERENCE_CASES["diagonal"],
            _REFERENCE_CASES["jc_chain"],
            _REFERENCE_CASES["band5_ladder"],
            lambda rng: SparseSymmetricOperator.diagonal([2.5]),
        ],
        ids=["band0", "band1", "band5", "dim1"],
    )
    def test_consecutive_steps_match_fresh_steps(self, make, rng, monkeypatch):
        def no_solve_banded(*args, **kwargs):
            raise AssertionError("the banded path must call LAPACK directly")

        monkeypatch.setattr(scipy.linalg, "solve_banded", no_solve_banded)
        op = make(rng)
        opset = OperatorSet([op])
        x = rng.standard_normal(op.dim)
        x /= np.linalg.norm(x)
        stepper = _Stepper(opset, 1.1, moments(opset, StateVector(x)).e1)
        assert stepper.path in ("complex gtsv", "complex gbsv")
        fresh = x
        for _ in range(3):
            x, _ = _take_step(stepper, x, moments(opset, StateVector(x)))
            fresh = implicit_step(opset, StateVector(fresh)).amps
            np.testing.assert_array_equal(x, fresh)


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
        # one operator and a commuting pair; row 0 of every trace is the
        # normalized input, evaluated exactly as moments and apply_B do
        v = StateVector(np.array([0.2, 0.9, 0.3]))
        u = v.normalized()
        d1 = SparseSymmetricOperator.diagonal([0.0, 1.0, 3.0])
        d2 = SparseSymmetricOperator.diagonal([1.0, 1.0, 0.0])
        for opset in (OperatorSet([d1]), OperatorSet([d1, d2])):
            final, report = collapse(opset, v)
            rows = report.iterations + 1
            assert report.residual_trace.shape == (rows,)
            assert report.norm_trace.shape == (rows,)
            mt = report.moments_trace
            for trace in (mt.e1, mt.e2, mt.var):
                assert trace.shape == (rows, len(opset))
            m0 = moments(opset, u)
            np.testing.assert_array_equal(mt.e1[0], m0.e1)
            np.testing.assert_array_equal(mt.e2[0], m0.e2)
            np.testing.assert_array_equal(mt.var[0], m0.var)
            bu = apply_B(opset, u, m0).amps
            assert report.residual_trace[0] == np.linalg.norm(bu) / u.norm
            assert report.residual_trace[-1] <= 1e-10
            assert report.wall_time >= 0.0
            assert report.solve_path == ("complex gbsv" if len(opset) == 1 else "spd banded")
            assert report.evaluate_s > 0.0 and report.solve_s > 0.0
            assert report.evaluate_s + report.solve_s <= report.wall_time

    def test_each_step_contracts(self):
        # the generator is negative semidefinite, so every step shrinks the
        # squared norm of the (unit) state it acts on
        opset = diag_set([0.0, 1.0, 2.0])
        v = StateVector(np.array([0.5, 0.7, 0.5]))
        _, report = collapse(opset, v, CollapseConfig(max_iter=200, tol=1e-12))
        assert np.all(report.norm_trace[1:] <= 1.0 + 1e-12)

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
            c = moments(opset, StateVector(x)).e1
            assert _Stepper(opset, 1.1, c).banded and not _Stepper(opset2, 1.1, c).banded
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

    @pytest.mark.parametrize("shift", [-1e2, -1.0, 1.0, 1e2])
    def test_shift_invariance_jc_chain(self, shift):
        # the centred generator and stop test see only O - e1: on H + c I,
        # c up to 1e2 max|H_ij|, the run takes the same steps to the same state
        h = build_hamiltonian(JCParams(400, kappa=0.1))
        c = shift * float(np.abs(h.vals).max())
        shifted = combine_operators([(1.0, h), (c, SparseSymmetricOperator.identity(h.dim))])
        v = StateVector.basis(h.dim, 4)
        cfg = CollapseConfig(max_iter=1000)
        f1, r1 = collapse(OperatorSet([h]), v, cfg)
        f2, r2 = collapse(OperatorSet([shifted]), v, cfg)
        assert r1.converged and r2.converged
        assert r1.iterations == r2.iterations
        assert np.linalg.norm(f1.amps - f2.amps) <= 1e-12

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


class TestBornRule:
    """Named cases on diag(0, 1, 10): the collapse picks the exact flow's winner.

    coeff_simulate's flow takes p = (.3, .3, .4) to level 1 and
    p = (.5, .3, .2) to level 0.
    """

    @staticmethod
    def winner(probs, dt):
        opset = diag_set([0.0, 1.0, 10.0])
        final, report = collapse(
            opset, StateVector(np.sqrt(probs)), CollapseConfig(dt=dt, max_iter=5000)
        )
        assert report.converged
        return int(np.argmax(np.abs(final.amps)))

    def test_heavy_far_level_loses_at_default_dt(self):
        assert self.winner([0.3, 0.3, 0.4], CollapseConfig().dt) == 1

    def test_largest_weight_wins_at_small_dt(self):
        assert self.winner([0.5, 0.3, 0.2], 0.1) == 0

    @pytest.mark.xfail(
        strict=True,
        reason="a fixed dt = 1.1 picks level 1; needs the scale-free dt rule "
        "of ROADMAP item 3",
    )
    def test_largest_weight_wins_at_default_dt(self):
        assert self.winner([0.5, 0.3, 0.2], CollapseConfig().dt) == 0
