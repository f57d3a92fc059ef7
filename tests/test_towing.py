import threading

import numpy as np
import pytest

from eigentow import (
    CollapseConfig,
    ContractViolationError,
    JCParams,
    OperatorSet,
    ParameterError,
    SparseSymmetricOperator,
    StateVector,
    build_hamiltonian,
    combine_operators,
    make_schedule,
    refine,
    squared_overlap,
    tow,
    tow_many,
    towing,
)
from eigentow.oracle import tridiag_eig
from eigentow.towing import TowingPlan


def jc_sets(n, kappa_base, kappa_target):
    base = OperatorSet([build_hamiltonian(JCParams(n, kappa_base))])
    target = OperatorSet([build_hamiltonian(JCParams(n, kappa_target))])
    return base, target


def bent_path(n):
    """JC base and target joined by three deltas whose knots leave the straight line."""
    base, target = jc_sets(n, 0.0, 0.4)
    diff = target.ops[0].to_dense() - base.ops[0].to_dense()
    bump = np.diag(np.linspace(-0.3, 0.5, n + 1))
    parts = [0.25 * diff + bump, 0.25 * diff, 0.5 * diff - bump]
    return base, target, [[SparseSymmetricOperator.from_dense(d)] for d in parts]


def assert_same_entries(a, b):
    assert a.dim == b.dim
    for name in ("rows", "cols", "vals"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def assert_same_operator(a, b):
    """Bitwise equal triplets and symmetric CSR (structure, dtypes and data)."""
    assert_same_entries(a, b)
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.csr, name), getattr(b.csr, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y)


@pytest.fixture
def combine_calls(monkeypatch):
    """Calls made to towing.combine_operators from here on."""
    calls = []
    original = towing.combine_operators

    def counting(terms):
        calls.append(terms)
        return original(terms)

    monkeypatch.setattr(towing, "combine_operators", counting)
    return calls


class TestPlan:
    def test_linear_interpolation(self):
        base, target = jc_sets(10, 0.0, 0.5)
        plan = make_schedule(base, target, steps=4)
        mid = plan.step_set(2).ops[0].to_dense()
        expect = 0.5 * base.ops[0].to_dense() + 0.5 * target.ops[0].to_dense()
        np.testing.assert_allclose(mid, expect, atol=1e-14)
        np.testing.assert_allclose(
            plan.step_set(4).ops[0].to_dense(), target.ops[0].to_dense(), atol=1e-14
        )
        # every rung is bitwise the two-term blend, and the last holds the target
        b, t = base.ops[0], target.ops[0]
        for i in range(1, 4):
            assert_same_entries(
                plan.step_set(i).ops[0],
                towing.combine_operators([(1.0 - i / 4, b), (i / 4, t)]),
            )
        assert_same_entries(plan.step_set(4).ops[0], t)

    def test_custom_rungs_are_prebuilt_knots(self, combine_calls):
        base, target, deltas = bent_path(8)
        plan = TowingPlan(base, target, steps=3, custom_deltas=deltas)
        combine_calls.clear()
        expect = base.ops[0].to_dense()
        for i, (delta,) in enumerate(deltas, start=1):
            expect = expect + delta.to_dense()
            np.testing.assert_allclose(
                plan.step_set(i).ops[0].to_dense(), expect, rtol=0, atol=1e-14
            )
        assert len(combine_calls) == 0

    def test_doubled_odd_rungs_are_knot_midpoints(self):
        base, target, deltas = bent_path(8)
        plan = TowingPlan(base, target, steps=3, custom_deltas=deltas)
        finer = plan._doubled()
        assert finer.steps == 6 and plan.steps == 3
        knots = [base.ops[0].to_dense()] + [plan.step_set(i).ops[0].to_dense() for i in (1, 2, 3)]
        for k in range(3):
            np.testing.assert_allclose(
                finer.step_set(2 * k + 1).ops[0].to_dense(),
                0.5 * (knots[k] + knots[k + 1]),
                rtol=0,
                atol=1e-14,
            )
            assert finer.step_set(2 * k + 2) is plan.step_set(k + 1)

    def test_blended_rungs_equal_combine_bitwise(self, combine_calls):
        # a linear plan, its doubling, and a custom plan doubled twice: every
        # rung between knots is the two-term blend of its neighbouring knots
        base, target = jc_sets(10, 0.0, 0.5)
        linear = make_schedule(base, target, steps=4)
        cbase, ctarget, deltas = bent_path(8)
        custom = TowingPlan(cbase, ctarget, steps=3, custom_deltas=deltas)
        combine_calls.clear()
        knots = [cbase.ops[0]] + [custom.step_set(i).ops[0] for i in (1, 2, 3)]
        cases = [
            (linear, [base.ops[0], target.ops[0]]),
            (linear._doubled(), [base.ops[0], target.ops[0]]),
            (custom._doubled()._doubled(), knots),
        ]
        for plan, chain in cases:
            for i in range(1, plan.steps):
                k, r = divmod(i * (len(chain) - 1), plan.steps)
                if r == 0:
                    continue
                t = r / plan.steps
                got = plan.step_set(i).ops[0]
                expect = combine_operators([(1.0 - t, chain[k]), (t, chain[k + 1])])
                assert_same_operator(got, expect)
        assert len(combine_calls) == 0

    def test_blend_drops_exact_cancellation(self, combine_calls):
        # (0, 1) is +1 in the base and -1 in the target, so it cancels at t = 1/2
        base = OperatorSet([SparseSymmetricOperator(3, [0, 0, 1], [0, 1, 2], [1.0, 1.0, 2.0])])
        target = OperatorSet([SparseSymmetricOperator(3, [0, 1, 2], [1, 2, 2], [-1.0, 4.0, 3.0])])
        mid = make_schedule(base, target, steps=2).step_set(1).ops[0]
        assert (0, 1) not in zip(mid.rows.tolist(), mid.cols.tolist())
        assert_same_operator(
            mid, combine_operators([(0.5, base.ops[0]), (0.5, target.ops[0])])
        )
        np.testing.assert_array_equal(
            mid.to_dense(), [[0.5, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 3.0, 1.5]]
        )
        assert len(combine_calls) == 0

    def test_rung_bounds(self):
        base, target = jc_sets(10, 0.0, 0.5)
        plan = make_schedule(base, target, steps=3)
        with pytest.raises(ParameterError):
            plan.step_set(0)
        with pytest.raises(ParameterError):
            plan.step_set(4)

    def test_custom_deltas_telescope(self):
        base, target = jc_sets(6, 0.0, 0.4)
        diff = SparseSymmetricOperator.from_dense(
            target.ops[0].to_dense() - base.ops[0].to_dense()
        )
        quarters = [
            [SparseSymmetricOperator.from_dense(0.25 * diff.to_dense())]
            for _ in range(4)
        ]
        plan = TowingPlan(base, target, steps=4, custom_deltas=quarters)
        np.testing.assert_allclose(
            plan.step_set(4).ops[0].to_dense(), target.ops[0].to_dense(), atol=1e-12
        )

    def test_custom_deltas_must_telescope(self):
        base, target = jc_sets(6, 0.0, 0.4)
        bogus = [
            [SparseSymmetricOperator.identity(target.dim)]
            for _ in range(4)
        ]
        with pytest.raises(ContractViolationError):
            TowingPlan(base, target, steps=4, custom_deltas=bogus)

    def test_delta_group_count_checked(self):
        base, target = jc_sets(6, 0.0, 0.4)
        diff = SparseSymmetricOperator.from_dense(
            target.ops[0].to_dense() - base.ops[0].to_dense()
        )
        with pytest.raises(ContractViolationError):
            TowingPlan(base, target, steps=3, custom_deltas=[[diff]])

    def test_dimension_mismatch(self):
        base, _ = jc_sets(6, 0.0, 0.4)
        _, target = jc_sets(8, 0.0, 0.4)
        with pytest.raises(ContractViolationError):
            make_schedule(base, target, steps=2)


class TestSquaredOverlap:
    def test_unit_and_orthogonal(self):
        a = StateVector.basis(3, 0)
        b = StateVector.basis(3, 1)
        assert squared_overlap(a, a) == pytest.approx(1.0)
        assert squared_overlap(a, b) == 0.0

    def test_scale_free(self):
        a = StateVector(np.array([1.0, 2.0]))
        b = StateVector(np.array([-3.0, 1.0]))
        assert squared_overlap(a, b) == pytest.approx(
            squared_overlap(a.normalized(), b.normalized())
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            squared_overlap(StateVector(np.zeros(2)), StateVector.basis(2, 0))


class TestTow:
    def test_reaches_oracle_eigenvector(self):
        n = 40
        params = JCParams(n, 0.2)
        base, target = jc_sets(n, 0.0, 0.2)
        k = 4
        plan = make_schedule(base, target, steps=5)
        result = tow(plan, k, CollapseConfig(max_iter=20000))
        assert result.converged
        assert result.target_id == k
        h = build_hamiltonian(params)
        dec = tridiag_eig(
            np.array([h.to_dense()[i, i] for i in range(n + 1)]),
            np.array([h.to_dense()[i, i + 1] for i in range(n)]),
            indices=[k],
        )
        assert squared_overlap(result.final_state, dec.vector(0)) > 1 - 1e-10

    def test_zero_steps_rejected(self):
        base, target = jc_sets(6, 0.0, 0.4)
        with pytest.raises(ParameterError):
            make_schedule(base, target, steps=0)

    def test_overlap_trace_shape(self):
        base, target = jc_sets(12, 0.0, 0.1)
        plan = make_schedule(base, target, steps=3)
        result = tow(plan, 2, CollapseConfig(max_iter=20000))
        assert result.converged
        assert len(result.per_step_reports) == 3
        assert len(result.per_step_overlaps) == 3
        assert all(0.0 <= ov <= 1.0 + 1e-12 for ov in result.per_step_overlaps)
        # a gentle ladder keeps every rung's state close to the previous one
        assert min(result.per_step_overlaps) > 0.9

    def test_custom_state_target(self):
        base, target = jc_sets(12, 0.0, 0.1)
        plan = make_schedule(base, target, steps=3)
        v0 = StateVector.basis(13, 2)
        result = tow(plan, v0, CollapseConfig(max_iter=20000))
        assert result.converged
        assert result.target_id == "custom"

    def test_nonconverged_rung_aborts(self):
        # an exactly tied two-state system never converges on rung 1
        base = OperatorSet([SparseSymmetricOperator.diagonal([0.0, 2.0])])
        plan = make_schedule(base, base, steps=2)
        result = tow(plan, StateVector(np.array([1.0, 1.0])), CollapseConfig(max_iter=50))
        assert not result.converged
        assert len(result.per_step_reports) == 1
        assert any("aborting" in w for w in result.warnings)


class TestRefine:
    def test_agreement_on_smooth_ladder(self):
        base, target = jc_sets(20, 0.0, 0.15)
        plan = make_schedule(base, target, steps=2)
        result = refine(plan, 3, CollapseConfig(max_iter=20000))
        assert result.converged
        assert result.agreement is True
        assert result.refined_steps == 4

    def test_refine_halves_custom_deltas(self):
        base, target = jc_sets(10, 0.0, 0.2)
        diff = SparseSymmetricOperator.from_dense(
            target.ops[0].to_dense() - base.ops[0].to_dense()
        )
        deltas = [[SparseSymmetricOperator.from_dense(0.5 * diff.to_dense())]] * 2
        plan = TowingPlan(base, target, steps=2, custom_deltas=deltas)
        result = refine(plan, 1, CollapseConfig(max_iter=20000))
        assert result.converged
        assert result.agreement is True
        assert result.refined_steps == 4

    def test_tolerance_validation(self):
        base, target = jc_sets(6, 0.0, 0.1)
        plan = make_schedule(base, target, steps=1)
        with pytest.raises(ParameterError):
            refine(plan, 0, agreement_tol=0.0)


class TestTowMany:
    def test_results_follow_target_order(self):
        base, target = jc_sets(16, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=3, targets=[5, 1, 3])
        results = tow_many(plan, CollapseConfig(max_iter=20000))
        assert [r.target_id for r in results] == [5, 1, 3]
        assert all(r.converged for r in results)

    def test_parallel_bitwise_equals_serial(self):
        base, target = jc_sets(16, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=3, targets=[0, 2, 4, 6])
        cfg = CollapseConfig(max_iter=20000)
        serial = tow_many(plan, cfg, parallelism=1)
        parallel = tow_many(plan, cfg, parallelism=4)
        for a, b in zip(serial, parallel):
            assert a.target_id == b.target_id
            np.testing.assert_array_equal(a.final_state.amps, b.final_state.amps)

    def test_failing_target_isolated(self):
        base, target = jc_sets(16, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=2, targets=[1, 99, 3])
        results = tow_many(plan, CollapseConfig(max_iter=20000))
        assert results[0].converged and results[2].converged
        assert not results[1].converged
        assert results[1].error is not None
        assert results[1].final_state is None
        # numpy integer targets keep their index as the id when they fail too;
        # a target that is no integer at all still yields an error result
        targets = [np.int64(1), np.int64(99), "x"]
        plan = TowingPlan(base, target, steps=2, targets=targets)
        results = tow_many(plan, CollapseConfig(max_iter=20000))
        assert [r.target_id for r in results] == [1, 99, "custom_2"]
        assert results[0].converged
        assert results[1].error is not None and results[2].error is not None

    def test_empty_target_list(self):
        base, target = jc_sets(6, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=1, targets=[])
        assert tow_many(plan) == []

    def test_targets_run_in_order_on_calling_thread(self, monkeypatch):
        base, target = jc_sets(8, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=1, targets=[3, 0, 2])
        calls = []
        original = towing.tow

        def recording_tow(plan, spec, cfg=None):
            calls.append((threading.get_ident(), spec))
            return original(plan, spec, cfg)

        monkeypatch.setattr(towing, "tow", recording_tow)
        results = tow_many(plan, CollapseConfig(max_iter=20000), parallelism=4)
        assert calls == [(threading.get_ident(), t) for t in (3, 0, 2)]
        assert [r.target_id for r in results] == [3, 0, 2]

    def test_parallelism_validation(self):
        base, target = jc_sets(6, 0.0, 0.1)
        for targets in ([1], []):
            plan = TowingPlan(base, target, steps=1, targets=targets)
            with pytest.raises(ParameterError):
                tow_many(plan, parallelism=0)

    def test_refine_tol_forwarded(self):
        base, target = jc_sets(12, 0.0, 0.1)
        plan = TowingPlan(base, target, steps=1, targets=[2])
        results = tow_many(plan, CollapseConfig(max_iter=20000), refine_tol=1e-6)
        assert results[0].agreement is True
        assert results[0].refined_steps == 2
