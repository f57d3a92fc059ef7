"""The benchmark's tracer patches eigentow by attribute name; those names must exist.

`benchmark/tracing.py` wraps the program's entry points from outside.  A
refactor that deletes or renames one of them breaks `--trace 1` without
failing anything else, so this test installs the instrumentation, runs one
traced collapse, and checks that `restore` puts every attribute back.
"""
import importlib.util
from pathlib import Path

import numpy as np

from eigentow import (
    CollapseConfig,
    OperatorSet,
    SparseSymmetricOperator,
    StateVector,
    jaynes_cummings,
    operators,
    towing,
)

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    collapse_mod = importlib.import_module("eigentow.collapse")
    op_cls = operators.SparseSymmetricOperator
    return [
        (collapse_mod, "sla"),
        (collapse_mod, "spla"),
        (op_cls, "matvec"),
        (op_cls, "square"),
        (op_cls, "upper_banded"),
        (towing, "collapse"),
        (towing, "combine_operators"),
        (towing, "tow"),
        (towing, "refine"),
        (towing.TowingPlan, "step_set"),
        (jaynes_cummings, "collapse"),
        (jaynes_cummings, "tridiag_eig"),
        (jaynes_cummings, "tridiag_eigenvalues"),
        (jaynes_cummings, "critical_coupling_at_ratio"),
    ]


def test_instrumentation_installs_and_restores():
    tracing = _load_tracing()
    before = [(owner, name, owner.__dict__[name]) for owner, name in _hooked()]
    tracer = tracing.Tracer()
    try:
        inst = tracing.Instrumentation(tracer)
        assert set(inst.api) == {"collapse", "tow_many", "scan_kappa", "fit_critical_exponent"}
        for owner, name, original in before:
            assert owner.__dict__[name] is not original, f"{name} was not patched"
        opset = OperatorSet([SparseSymmetricOperator.diagonal([0.0, 1.0, 3.0])])
        v = StateVector(np.array([0.2, 0.9, 0.3]))
        _, report = inst.api["collapse"](opset, v, CollapseConfig(max_iter=3, tol=1e-300))
        inst.restore()
        for owner, name, original in before:
            assert owner.__dict__[name] is original, f"{name} was not restored"
    finally:
        # leave the package unpatched for later tests even when a step failed
        for owner, name, original in before:
            setattr(owner, name, original)
    names = {s.name for s in tracer.spans}
    assert {"collapse.collapse", "operators.matvec"} <= names
    # two matvecs per operator for each of the iterations + 1 evaluations
    matvecs = sum(s.name == "operators.matvec" for s in tracer.spans)
    assert matvecs == 2 * (report.iterations + 1)
