"""Towing eigenstates along a ladder of operator perturbations.

A towing plan is a chain of operator sets from a solved base set to a target
set, split into M rungs; each rung re-collapses the previous converged state
under the perturbed set.  `tow_many` tows a plan's targets one after another; a
target that fails yields a result carrying its error, and the rest still run.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from .collapse import CollapseConfig, ConvergenceReport, collapse
from .errors import ContractViolationError, ParameterError
from .operators import (
    OperatorSet,
    SparseSymmetricOperator,
    StateVector,
    combine_operators,
)
from .operators import _Blend

__all__ = [
    "TowingPlan",
    "TowingResult",
    "make_schedule",
    "tow",
    "refine",
    "tow_many",
    "squared_overlap",
]

TargetSpec = int | StateVector


def squared_overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for unit-normalized inputs (normalizes defensively)."""
    denom = a.norm2 * b.norm2
    if denom == 0.0:
        raise ContractViolationError("overlap with a zero vector is undefined")
    return float(a.amps @ b.amps) ** 2 / denom


@dataclass
class TowingPlan:
    """Base and target operator sets plus the perturbation schedule.

    The plan is a chain of knot operator sets from base to target, built
    once: (base, target) without custom_deltas, else base + delta_1 + ...
    + delta_k for k = 0..steps, where the increments must telescope exactly
    to the target.  The rungs split the chain evenly, each rung set blending
    linearly between its two neighbouring knots; refinement subdivides it.
    A rung on a knot is that knot's set.  Between knots, the union pattern of
    the two knots, their aligned values and the symmetric CSR structure are
    built once per knot pair and shared by every target and every doubling,
    so a rung costs one affine combination of two value arrays.
    """

    base_set: OperatorSet
    target_set: OperatorSet
    steps: int = 10
    custom_deltas: Sequence[Sequence[SparseSymmetricOperator]] | None = None
    targets: Sequence[TargetSpec] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.base_set.dim != self.target_set.dim:
            raise ContractViolationError("base and target dimensions differ")
        if len(self.base_set) != len(self.target_set):
            raise ContractViolationError("base and target operator counts differ")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        # knot k -> the blends toward knot k + 1, built on first use and
        # shared with every copy _doubled makes
        self._blends: dict[int, tuple[_Blend, ...]] = {}
        if self.custom_deltas is None:
            self._knots = (self.base_set, self.target_set)
            return
        deltas = tuple(tuple(step) for step in self.custom_deltas)
        if len(deltas) != self.steps:
            raise ContractViolationError("need one delta group per step")
        if any(len(group) != len(self.base_set) for group in deltas):
            raise ContractViolationError("each delta group needs one term per operator")
        self.custom_deltas = deltas
        knots = [self.base_set]
        for group in deltas:
            knots.append(OperatorSet([
                combine_operators([(1.0, op), (1.0, delta)])
                for op, delta in zip(knots[-1].ops, group)
            ]))
        for j, (last, target_op) in enumerate(zip(knots[-1].ops, self.target_set.ops)):
            diff = combine_operators([(1.0, last), (-1.0, target_op)])
            worst = float(np.abs(diff.vals).max()) if diff.nnz else 0.0
            if worst > 1e-12:
                raise ContractViolationError(
                    f"deltas do not telescope to the target for operator {j} "
                    f"(max entry deviation {worst:.3e})"
                )
        knots[-1] = self.target_set
        self._knots = tuple(knots)

    def step_set(self, i: int) -> OperatorSet:
        """Operator set at rung i, i = 1..steps (rung steps equals the target)."""
        if not 1 <= i <= self.steps:
            raise ParameterError(f"rung {i} outside 1..{self.steps}")
        k, r = divmod(i * (len(self._knots) - 1), self.steps)
        if r == 0:
            return self._knots[k]
        blends = self._blends.get(k)
        if blends is None:
            blends = self._blends[k] = tuple(
                _Blend(a, b) for a, b in zip(self._knots[k].ops, self._knots[k + 1].ops)
            )
        t = r / self.steps
        return OperatorSet([blend.at(t) for blend in blends])

    def _doubled(self) -> TowingPlan:
        """The same knot chain split into twice as many rungs."""
        finer = copy.copy(self)
        finer.steps = 2 * self.steps
        return finer


@dataclass
class TowingResult:
    target_id: int | str
    final_state: StateVector | None
    per_step_reports: list[ConvergenceReport]
    per_step_overlaps: list[float]
    refined_steps: int
    converged: bool
    agreement: bool | None = None
    warnings: list[str] = field(default_factory=list)
    error: str | None = None


def make_schedule(
    base: OperatorSet, target: OperatorSet, steps: int
) -> TowingPlan:
    """Linear interpolation plan from base to target in the given step count."""
    return TowingPlan(base_set=base, target_set=target, steps=steps)


def _resolve_target(plan: TowingPlan, spec: TargetSpec) -> tuple[int | str, StateVector]:
    if isinstance(spec, StateVector):
        return "custom", spec.normalized()
    return int(spec), StateVector.basis(plan.base_set.dim, int(spec))


def tow(
    plan: TowingPlan, target: TargetSpec, cfg: CollapseConfig | None = None
) -> TowingResult:
    """Collapse rung by rung from the base toward the target operator set.

    Aborts with converged=False on the first non-converged rung; overlaps
    below 0.5 are recorded as wrong-branch warnings but do not abort.
    """
    cfg = cfg or CollapseConfig()
    target_id, v = _resolve_target(plan, target)
    reports: list[ConvergenceReport] = []
    overlaps: list[float] = []
    warnings: list[str] = []
    for i in range(1, plan.steps + 1):
        v_new, report = collapse(plan.step_set(i), v, cfg)
        reports.append(report)
        ov = squared_overlap(v, v_new)
        overlaps.append(ov)
        warnings.extend(f"rung {i}: {w}" for w in report.warnings)
        if not report.converged:
            warnings.append(f"rung {i} failed to converge; aborting this target")
            return TowingResult(
                target_id, v_new, reports, overlaps, plan.steps, False, warnings=warnings
            )
        if ov < 0.5:
            warnings.append(
                f"rung {i} squared overlap {ov:.3f} < 0.5; possible wrong-branch capture"
            )
        v = v_new
    return TowingResult(
        target_id, v, reports, overlaps, plan.steps, True, warnings=warnings
    )


def refine(
    plan: TowingPlan,
    target: TargetSpec,
    cfg: CollapseConfig | None = None,
    agreement_tol: float = 1e-6,
    max_doublings: int = 6,
) -> TowingResult:
    """Double the rung count until two consecutive ladders land on one state.

    Compares the final states of the M-rung and 2M-rung ladders; on squared
    overlap >= 1 - agreement_tol the finer result is returned.  Every doubling
    splits the same knot chain, so custom increments keep their perturbation
    path.
    """
    if not 0 < agreement_tol < 1:
        raise ParameterError("agreement_tol must lie in (0, 1)")
    cfg = cfg or CollapseConfig()
    current_plan = plan
    current = tow(current_plan, target, cfg)
    for _ in range(max_doublings):
        finer_plan = current_plan._doubled()
        finer = tow(finer_plan, target, cfg)
        if (
            current.converged
            and finer.converged
            and squared_overlap(current.final_state, finer.final_state)
            >= 1.0 - agreement_tol
        ):
            finer.agreement = True
            return finer
        current_plan = finer_plan
        current = finer
    current.agreement = False
    current.warnings.append(
        f"refinement cap of {max_doublings} doublings reached without agreement"
    )
    return current


def tow_many(
    plan: TowingPlan,
    cfg: CollapseConfig | None = None,
    parallelism: int = 1,
    refine_tol: float | None = None,
) -> list[TowingResult]:
    """Tow every plan target in turn on the calling thread; results follow target order.

    A failing target yields a TowingResult carrying its error; the other
    targets are unaffected.  parallelism must be >= 1 and does not change
    how the run executes: the targets always run one after another, because
    worker threads made the tows slower (they contend for the interpreter
    lock and share the cores with the BLAS threads).
    """
    if parallelism < 1:
        raise ParameterError(f"parallelism must be >= 1, got {parallelism}")
    cfg = cfg or CollapseConfig()
    results = []
    for pos, spec in enumerate(plan.targets):
        try:
            if refine_tol is not None:
                results.append(refine(plan, spec, cfg, agreement_tol=refine_tol))
            else:
                results.append(tow(plan, spec, cfg))
        except Exception as exc:
            # numpy integers are Integral; a spec int() rejects must not raise here
            tid = int(spec) if isinstance(spec, Integral) else f"custom_{pos}"
            results.append(TowingResult(
                target_id=tid,
                final_state=None,
                per_step_reports=[],
                per_step_overlaps=[],
                refined_steps=plan.steps,
                converged=False,
                error=str(exc),
            ))
    return results
