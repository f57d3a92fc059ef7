"""Spans around eigentow's layer boundaries, recorded from the benchmark's side.

`Instrumentation` replaces the public functions each layer's callers use (the
names a module imported, class methods, and the scipy entry points that
`eigentow.collapse` reaches through its `sla`/`spla` module names) with
wrappers that record one span per call: name, start, end, parent and
thread.  Spans stay in memory until `write_spans`.  Nothing in the program
is edited; the originals are put back by `Instrumentation.restore`.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

# span name -> the per-layer self-time metric it feeds
_SELF_METRIC = {
    "bench": "bench.self_s",
    "collapse.collapse": "collapse.self_s",
    "collapse.solve": "collapse.solve_s",
    "operators": "operators.self_s",
    "towing": "towing.self_s",
    "oracle": "oracle.self_s",
    "jaynes_cummings": "jaynes_cummings.self_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info")

    def __init__(self, name, start, parent, thread, info=None):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.thread = thread
        self.info = info


class Tracer:
    """In-memory span recorder.  A span opened on a thread with no open span
    of its own (a pool worker) takes the innermost open span of the thread
    that created the tracer as its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._local.stack = []

    def _open(self, name, info=None) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parents = stack or self._main
        span = Span(name, time.perf_counter(), parents[-1] if parents else -1,
                    threading.get_ident(), info)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name, info=None):
        idx = self._open(name, info)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, name, fn, record=None):
        """fn with a span per call; record(result) is stored as the span's info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                self.spans[idx].info = record(out)
            return out

        return traced


class _Namespace:
    """Stand-in for a module: the given names are overridden, the rest delegate."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _collapse_info(out):
    report = out[1]
    return (report.iterations, report.converged, report.residual_trace)


class Instrumentation:
    """The wrapped entry points, installed on eigentow's modules and classes."""

    def __init__(self, tracer: Tracer):
        import eigentow

        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        mod = {name: importlib.import_module(f"eigentow.{name}")
               for name in ("collapse", "operators", "towing", "jaynes_cummings")}
        wrap = tracer.wrap

        traced_collapse = wrap("collapse.collapse", eigentow.collapse, _collapse_info)
        sla, spla = mod["collapse"].sla, mod["collapse"].spla

        def splu(*args, **kwargs):
            lu = spla.splu(*args, **kwargs)
            return _Namespace(lu, solve=wrap("collapse.solve.splu_solve", lu.solve))

        self._set(mod["collapse"], "sla", _Namespace(
            sla, solveh_banded=wrap("collapse.solve.banded", sla.solveh_banded)))
        self._set(mod["collapse"], "spla", _Namespace(
            spla, splu=wrap("collapse.solve.splu", splu)))
        op_cls = mod["operators"].SparseSymmetricOperator
        for method in ("matvec", "square", "upper_banded"):
            self._set(op_cls, method, wrap(f"operators.{method}", getattr(op_cls, method)))
        towing = mod["towing"]
        self._set(towing, "collapse", traced_collapse)
        self._set(towing, "combine_operators",
                  wrap("operators.combine", towing.combine_operators))
        self._set(towing, "tow", wrap("towing.tow", towing.tow))
        self._set(towing, "refine", wrap("towing.refine", towing.refine))
        self._set(towing.TowingPlan, "step_set",
                  wrap("towing.step_set", towing.TowingPlan.step_set))
        jc = mod["jaynes_cummings"]
        self._set(jc, "collapse", traced_collapse)
        self._set(jc, "tridiag_eig", wrap("oracle.tridiag_eig", jc.tridiag_eig))
        self._set(jc, "tridiag_eigenvalues",
                  wrap("oracle.tridiag_eigenvalues", jc.tridiag_eigenvalues))
        self._set(jc, "critical_coupling_at_ratio",
                  wrap("jaynes_cummings.crossing", jc.critical_coupling_at_ratio))
        # the entry points the benchmark itself calls
        self.api = {
            "collapse": traced_collapse,
            "tow_many": wrap("towing.tow_many", eigentow.tow_many),
            "scan_kappa": wrap("jaynes_cummings.scan_kappa", eigentow.scan_kappa),
            "fit_critical_exponent": wrap("jaynes_cummings.fit", eigentow.fit_critical_exponent),
        }

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[np.ndarray, float]:
    """Each span's duration minus the part of it its children cover, and the
    time counted twice because children of one span ran at once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = np.empty(len(spans))
    overlap = 0.0
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        covered = _union_length(kids)
        overlap += sum(hi - lo for lo, hi in kids) - covered
        out[i] = (s.end - s.start) - covered
    return out, overlap


def _self_metric(name: str) -> str:
    for prefix in (name, name.rsplit(".", 1)[0], name.split(".", 1)[0]):
        if prefix in _SELF_METRIC:
            return _SELF_METRIC[prefix]
    raise KeyError(f"span {name!r} belongs to no layer")


def contraction_rate(residual_trace) -> float:
    """Fitted decay of ln(residual) per iteration (positive when contracting)."""
    r = np.asarray(residual_trace, dtype=np.float64)
    keep = r > 0
    if keep.sum() < 3:
        return math.nan
    it = np.nonzero(keep)[0]
    return float(-np.polyfit(it, np.log(r[keep]), 1)[0])


def layer_metrics(spans: list[Span], rounds: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics, per round, from the spans of `rounds` traced rounds
    that took `wall_s` in all."""
    selfs, overlap = self_times(spans)
    m: dict[str, float] = {v: 0.0 for v in _SELF_METRIC.values()}
    for s, own in zip(spans, selfs):
        m[_self_metric(s.name)] += own

    def spans_named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.end - s.start for s in spans_named(name))

    collapses = spans_named("collapse.collapse")
    m["collapse.calls"] = len(collapses)
    m["collapse.iterations"] = sum(s.info[0] for s in collapses)
    rates = [contraction_rate(s.info[2]) for s in collapses if s.info[1]]
    rates = [r for r in rates if math.isfinite(r)]
    m["collapse.contraction_rate"] = float(np.median(rates)) if rates else 0.0
    m["collapse.solve_calls.banded"] = len(spans_named("collapse.solve.banded"))
    m["collapse.solve_calls.splu"] = len(spans_named("collapse.solve.splu"))

    # cost per collapse step in each op group of collapse-target
    per_group: dict[str, list[float]] = {}
    for s in collapses:
        parent = spans[s.parent] if s.parent >= 0 else None
        if parent is not None and parent.name == "bench.op" and s.info[0] > 0:
            acc = per_group.setdefault(parent.info, [0.0, 0])
            acc[0] += s.end - s.start
            acc[1] += s.info[0]
    for group in ("jc4000", "jc64000", "band5"):
        secs, steps = per_group.get(group, (0.0, 0))
        m[f"collapse.step_us.{group}"] = 1e6 * secs / steps if steps else 0.0
    a, b = m["collapse.step_us.jc4000"], m["collapse.step_us.jc64000"]
    m["collapse.step_slope"] = math.log(b / a) / math.log(64000 / 4000) if a and b else 0.0

    m["operators.matvec_calls"] = len(spans_named("operators.matvec"))
    m["operators.matvec_s"] = total("operators.matvec")
    m["operators.square_s"] = total("operators.square")
    m["operators.upper_banded_s"] = total("operators.upper_banded")
    m["operators.combine_s"] = total("operators.combine")

    m["towing.step_set_s"] = total("towing.step_set")
    m["towing.rungs"] = len(spans_named("towing.step_set"))
    m["towing.ladders"] = len(spans_named("towing.tow"))
    rung_iters = sum(
        s.info[0] for s in collapses if s.parent >= 0 and spans[s.parent].name == "towing.tow"
    )
    m["towing.iterations_per_rung"] = rung_iters / m["towing.rungs"] if m["towing.rungs"] else 0.0
    pools = [i for i, s in enumerate(spans) if s.name == "towing.tow_many"]
    per_target = sum(
        s.end - s.start for s in spans
        if s.parent in pools and s.name in ("towing.refine", "towing.tow")
    )
    pool_wall = sum(spans[i].end - spans[i].start for i in pools)
    m["towing.parallel_speedup"] = per_target / pool_wall if pool_wall else 0.0

    for fn in ("tridiag_eig", "tridiag_eigenvalues"):
        m[f"oracle.{fn}_calls"] = len(spans_named(f"oracle.{fn}"))
        m[f"oracle.{fn}_s"] = total(f"oracle.{fn}")
    m["jaynes_cummings.crossing_s"] = total("jaynes_cummings.crossing")
    m["jaynes_cummings.fit_s"] = total("jaynes_cummings.fit")

    m["trace.spans"] = len(spans)
    m["trace.parallel_overlap_s"] = overlap
    m["trace.accounted_share"] = (float(selfs.sum()) - overlap) / wall_s
    counts = {"collapse.calls", "collapse.iterations", "collapse.solve_calls.banded",
              "collapse.solve_calls.splu", "operators.matvec_calls", "towing.rungs",
              "towing.ladders", "oracle.tridiag_eig_calls", "oracle.tridiag_eigenvalues_calls",
              "trace.spans"}
    per_round = counts | {k for k in m if k.endswith("_s")}
    return {k: (v / rounds if k in per_round else v) for k, v in m.items()}


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per span: name, start, end, parent index, thread."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start - t0, s.end - t0, s.parent, s.thread]) + "\n")
