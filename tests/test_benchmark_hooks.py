"""The benchmark's tracer patches eigentow by attribute name; those names must exist.

`benchmark/tracing.py` wraps the program's entry points from outside.  A
refactor that deletes or renames one of them breaks `--trace 1` without
failing anything else, so these tests install the instrumentation, run a
traced collapse and a traced tow, and check that `restore` puts every
attribute back.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eigentow import (
    CollapseConfig,
    JCParams,
    OperatorSet,
    SparseSymmetricOperator,
    StateVector,
    TowingPlan,
    build_hamiltonian,
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


@pytest.fixture
def instrumented():
    """(originals, tracer, installed Instrumentation); the package is unpatched afterwards."""
    tracing = _load_tracing()
    before = [(owner, name, owner.__dict__[name]) for owner, name in _hooked()]
    tracer = tracing.Tracer()
    try:
        yield before, tracer, tracing.Instrumentation(tracer)
    finally:
        # leave the package unpatched for later tests even when a step failed
        for owner, name, original in before:
            setattr(owner, name, original)


def test_instrumentation_installs_and_restores(instrumented):
    before, tracer, inst = instrumented
    assert set(inst.api) == {"collapse", "tow_many", "scan_kappa", "fit_critical_exponent"}
    for owner, name, original in before:
        assert owner.__dict__[name] is not original, f"{name} was not patched"
    opset = OperatorSet([SparseSymmetricOperator.diagonal([0.0, 1.0, 3.0])])
    v = StateVector(np.array([0.2, 0.9, 0.3]))
    _, report = inst.api["collapse"](opset, v, CollapseConfig(max_iter=3, tol=1e-300))
    inst.restore()
    for owner, name, original in before:
        assert owner.__dict__[name] is original, f"{name} was not restored"
    names = {s.name for s in tracer.spans}
    assert {"collapse.collapse", "operators.matvec"} <= names
    # two matvecs per operator for each of the iterations + 1 evaluations
    matvecs = sum(s.name == "operators.matvec" for s in tracer.spans)
    assert matvecs == 2 * (report.iterations + 1)


def test_traced_tow_many_nests_on_one_thread(instrumented):
    # tow_many must reach tow, refine and step_set through the patched names
    _, tracer, inst = instrumented
    base = OperatorSet([build_hamiltonian(JCParams(12, 0.0))])
    target = OperatorSet([build_hamiltonian(JCParams(12, 0.1))])
    plan = TowingPlan(base, target, steps=1, targets=[0, 3])
    results = inst.api["tow_many"](plan, CollapseConfig(max_iter=20000), refine_tol=1e-6)
    assert all(r.converged for r in results)
    spans = tracer.spans
    for name in ("towing.refine", "towing.tow", "towing.step_set"):
        named = [s for s in spans if s.name == name]
        assert named, f"no {name} span"
        for s in named:
            while s.parent >= 0 and s.name != "towing.tow_many":
                s = spans[s.parent]
            assert s.name == "towing.tow_many", f"{name} does not nest in tow_many"
    assert len({s.thread for s in spans}) == 1
