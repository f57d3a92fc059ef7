"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload builds its inputs from the seed, warms up, and lists the
operations of one round.  An operation is a call into eigentow's public
functions through `api`, so a traced run can pass wrapped entry points.
Checks run after the timed phase and compare every output with the
reference computations in `reference.py`, never with stored output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.linalg as sla

import eigentow as et
import reference as ref

# every collapse in the benchmark gets this many iterations before it counts as failed
ITERATION_BUDGET = 1000


@dataclass
class Op:
    name: str
    group: str  # op group; collapse-target reports cost per step per group
    part: str  # the timing the op is summed into, e.g. target_s
    run: Callable[[dict, dict], Any]  # (api, outputs of earlier ops this round) -> output


@dataclass
class Outcome:
    """Checked result of one op (or of one target of a tow_many call)."""

    op: str
    succeeded: bool  # the program reported success (converged, agreed, no error)
    check_ok: bool | None  # None when there was no successful output to check
    note: str
    fault: str | None = None  # diagnosed cause of a failure
    iterations: int | None = None

    @property
    def failed(self) -> bool:
        return not (self.succeeded and self.check_ok)


@dataclass
class Collapsed:
    """The parts of one collapse's output that the checks read."""

    amps: np.ndarray
    iterations: int
    converged: bool
    residual_trace: np.ndarray


@dataclass
class Workload:
    name: str
    parts: tuple[str, ...]
    inputs: dict = field(default_factory=dict)

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def warm_up(self, api: dict) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def keep(self, outputs: dict) -> dict:
        """What the checks need from one round's outputs.  Called after each
        round, so memory does not grow with the number of rounds."""
        return outputs

    def check(self, kept: dict) -> list[Outcome]:
        raise NotImplementedError

    def counts(self, kept: dict) -> dict[str, float]:
        """Per-layer counts read from one round's kept outputs (no scan runs here)."""
        return {"jaynes_cummings.scan_rows": 0}


# --- collapse-target ---------------------------------------------------------

JC_KAPPA = 0.1
JC_STARTS = {4000: (0, 2, 4, 8), 64000: (0, 2)}
LADDER_N, LADDER_BANDWIDTH, LADDER_SCALE, LADDER_DT = 4000, 5, 0.1, 0.1
# Interior starts whose energy keeps the residual's rounding floor (about
# eps * e1^2) well below tol.  From start 2000 the floor is about 9e-10, so
# that op converges only when a rounding dip reaches 1e-10: on some seeds.
LADDER_STARTS = (100, 200)


def _collapse_diagnosis(report: Collapsed, reference_vector, level) -> tuple[str, str]:
    """Name the fault of a collapse that hit its budget."""
    tail = report.residual_trace[-500:]
    dist = ref.vector_distance(report.amps, reference_vector)
    span = f"residual over the last {tail.size} iterations in [{tail.min():.2g}, {tail.max():.2g}]"
    if dist < 1e-6:
        return ("absolute stop test",
                f"{span}, yet the state is {dist:.1e} from LAPACK eigenvector {level}")
    return ("fixed-dt stall", f"{span}; the state is {dist:.2f} from LAPACK eigenvector {level}"
            f" that the exact flow selects")


class CollapseTarget(Workload):
    """Direct targeting from basis states: the JC chain at N = 4000 and 64000
    (dt = 1.1, the default) and a seeded bandwidth-5 ladder (dt = 0.1)."""

    def __init__(self):
        super().__init__("collapse-target", ("target_s", "target_wideband_s"))

    def build(self, seed: int) -> None:
        inp = {}
        for n in JC_STARTS:
            diag, off = ref.jc_chain(n, JC_KAPPA)
            h = et.build_hamiltonian(et.JCParams(n_molecules=n, kappa=JC_KAPPA))
            inp[f"jc{n}"] = {"arrays": (diag, off), "op": h, "dt": 1.1, "starts": JC_STARTS[n]}
        bands = ref.ladder_bands(LADDER_N, LADDER_BANDWIDTH, LADDER_SCALE,
                                 np.random.default_rng(seed))
        rows = np.concatenate([np.arange(LADDER_N - k) for k in range(len(bands))])
        cols = np.concatenate([np.arange(k, LADDER_N) for k in range(len(bands))])
        h = et.SparseSymmetricOperator(LADDER_N, rows, cols, np.concatenate(bands))
        inp["band5"] = {"arrays": bands, "op": h, "dt": LADDER_DT, "starts": LADDER_STARTS}
        self.inputs = inp
        self._refs = None

    def warm_up(self, api: dict) -> None:
        for g in self.inputs.values():
            h = g["op"]
            api["collapse"](et.OperatorSet([h]), et.StateVector.basis(h.dim, g["starts"][0]),
                            et.CollapseConfig(dt=g["dt"], max_iter=3))

    def ops(self) -> list[Op]:
        out = []
        for group, g in self.inputs.items():
            cfg = et.CollapseConfig(dt=g["dt"], max_iter=ITERATION_BUDGET)
            part = "target_wideband_s" if group == "band5" else "target_s"
            for start in g["starts"]:
                def run(api, _done, h=g["op"], start=start, cfg=cfg):
                    return api["collapse"](et.OperatorSet([h]),
                                           et.StateVector.basis(h.dim, start), cfg)
                out.append(Op(f"{group}/start{start}", group, part, run))
        return out

    def keep(self, outputs: dict) -> dict:
        return {name: Collapsed(state.amps, report.iterations, report.converged,
                                report.residual_trace)
                for name, (state, report) in outputs.items()}

    def _references(self):
        """Per-group LAPACK spectra and the exact-flow winner of every N = 4000 start."""
        if self._refs is not None:
            return self._refs
        refs = {}
        diag, off = self.inputs["jc4000"]["arrays"]
        values, vectors = sla.eigh_tridiagonal(diag, off)
        refs["jc4000"] = {
            "vectors": vectors,
            "flow": {s: ref.flow_winner(values, vectors[s] ** 2) for s in JC_STARTS[4000]},
        }
        spectrum = ref.BandedSpectrum(self.inputs["band5"]["arrays"])
        weights = spectrum.start_weights(LADDER_STARTS)
        refs["band5"] = {
            "spectrum": spectrum,
            "flow": {s: ref.flow_winner(spectrum.values, w) for s, w in zip(LADDER_STARTS, weights)},
        }
        self._refs = refs
        return refs

    def check(self, kept: dict) -> list[Outcome]:
        refs = self._references()
        results = []
        for group, g, start in ((group, g, s) for group, g in self.inputs.items()
                                for s in g["starts"]):
            name = f"{group}/start{start}"
            report = kept[name]
            x = report.amps
            if group == "band5":
                pair = refs["band5"]["spectrum"].eigenpair(x)
            else:
                pair = ref.tridiagonal_eigenpair(*g["arrays"], x)
            flow = refs.get(group, {}).get("flow", {}).get(start)
            if not report.converged:
                if flow is not None:  # N = 4000: the level the exact flow selects
                    level = flow.winner
                    vec = (refs["band5"]["spectrum"].vector(level) if group == "band5"
                           else refs[group]["vectors"][:, level])
                else:  # N = 64000: the LAPACK level nearest the final Rayleigh quotient
                    level = pair.index if pair.index >= 0 else start
                    vec = ref.tridiagonal_vector(*g["arrays"], level)
                fault, note = _collapse_diagnosis(report, vec, level)
                results.append(Outcome(name, False, None,
                                       f"not converged in {report.iterations} iterations; {note}",
                                       fault, report.iterations))
                continue
            problems = [] if pair.ok else [pair.note]
            if pair.ok:
                weight = float(pair.vector[start] ** 2)
                if not weight > 0.0:
                    problems.append(f"winner level {pair.index} has zero weight in start {start}")
                if flow is not None and flow.winner != pair.index:
                    problems.append(f"exact flow selects level {flow.winner}, collapse found "
                                    f"level {pair.index}")
            note = pair.note + (f", flow winner {flow.winner}" if flow is not None else "")
            if problems:
                note = "; ".join(problems)
            results.append(Outcome(name, True, not problems, note, None, report.iterations))
        return results


# --- tow-refine --------------------------------------------------------------

TOW_N = 400
TOW_TARGETS = (0, 8, 16, 24, 40, 60, 80, 100, 120)
TOW_STEPS, TOW_REFINE_TOL, TOW_PARALLELISM = 10, 1e-6, 2


class TowRefine(Workload):
    """tow_many on the N = 400 JC chain from kappa = 0 to 0.1, refined to 1e-6."""

    def __init__(self):
        super().__init__("tow-refine", ("tow_s",))

    def _plan(self, targets, steps):
        base = et.OperatorSet([et.build_hamiltonian(et.JCParams(n_molecules=TOW_N, kappa=0.0))])
        target = et.OperatorSet([et.build_hamiltonian(et.JCParams(n_molecules=TOW_N,
                                                                  kappa=JC_KAPPA))])
        return et.TowingPlan(base_set=base, target_set=target, steps=steps, targets=targets)

    def build(self, seed: int) -> None:
        self.inputs = {
            "plan": self._plan(TOW_TARGETS, TOW_STEPS),
            "arrays": ref.jc_chain(TOW_N, JC_KAPPA),
            "cfg": et.CollapseConfig(max_iter=ITERATION_BUDGET),
        }

    def warm_up(self, api: dict) -> None:
        api["tow_many"](self._plan(TOW_TARGETS[:2], 1), et.CollapseConfig(max_iter=3),
                        parallelism=TOW_PARALLELISM)

    def ops(self) -> list[Op]:
        def run(api, _done):
            return api["tow_many"](self.inputs["plan"], self.inputs["cfg"],
                                   parallelism=TOW_PARALLELISM, refine_tol=TOW_REFINE_TOL)

        return [Op("tow_many", "tow", "tow_s", run)]

    def keep(self, outputs: dict) -> dict:
        return {
            k: {"amps": None if res.final_state is None else res.final_state.amps,
                "ok": res.error is None and res.converged and bool(res.agreement),
                "status": f"converged={res.converged} agreement={res.agreement} "
                          f"error={res.error}",
                "rungs": res.refined_steps,
                "iterations": sum(r.iterations for r in res.per_step_reports)}
            for k, res in zip(TOW_TARGETS, outputs["tow_many"])
        }

    def check(self, kept: dict) -> list[Outcome]:
        results = []
        for k, res in kept.items():
            name = f"tow_many/target{k}"
            if not res["ok"]:
                results.append(Outcome(name, False, None, res["status"], "tow failure",
                                       res["iterations"]))
                continue
            # an irreducible Jacobi matrix has a simple spectrum, so level k
            # of the kappa = 0 chain (basis state k) stays level k along the tow
            pair = ref.tridiagonal_eigenpair(*self.inputs["arrays"], res["amps"])
            ok = pair.ok and pair.index == k
            note = pair.note + f", {res['rungs']} rungs"
            results.append(Outcome(name, True, ok, note, None, res["iterations"]))
        return results


# --- esqpt-oracle ------------------------------------------------------------

PIPELINE_NS = (100, 200, 400, 800)
PIPELINE_Q = 0.1
GROUND_N = 400
TOL_ROW = 1e-9


class EsqptOracle(Workload):
    """The exponent pipeline: oracle scans at q = 0.1 over N = 100..800, the
    fit, and one q = 0 ground-state scan at N = 400."""

    def __init__(self):
        super().__init__("esqpt-oracle", ("pipeline_s", "ground_scan_s"))

    def build(self, seed: int) -> None:
        self.inputs = {"params": {n: et.JCParams(n_molecules=n) for n in PIPELINE_NS + (GROUND_N,)}}

    def warm_up(self, api: dict) -> None:
        small = [api["scan_kappa"](et.JCParams(n_molecules=n), PIPELINE_Q) for n in (20, 30, 40)]
        api["fit_critical_exponent"](small)
        api["scan_kappa"](et.JCParams(n_molecules=20), 0.0)

    def ops(self) -> list[Op]:
        params = self.inputs["params"]
        out = []
        for n in PIPELINE_NS:
            out.append(Op(f"scan/q{PIPELINE_Q}/N{n}", "pipeline", "pipeline_s",
                          lambda api, _done, p=params[n]: api["scan_kappa"](p, PIPELINE_Q)))

        def fit(api, done):
            return api["fit_critical_exponent"](
                [done[f"scan/q{PIPELINE_Q}/N{n}"] for n in PIPELINE_NS])

        out.append(Op("fit", "pipeline", "pipeline_s", fit))
        out.append(Op(f"scan/q0/N{GROUND_N}", "ground", "ground_scan_s",
                      lambda api, _done, p=params[GROUND_N]: api["scan_kappa"](p, 0.0)))
        return out

    @staticmethod
    def _lapack_row(n: int, k: int, kappa: float) -> tuple[float, float]:
        """Inversion and scaled energy of level k, from LAPACK on the benchmark's arrays."""
        diag, off = ref.jc_chain(n, kappa)
        vals, vecs = sla.eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
        j = n / 2.0
        v = vecs[:, 0]
        return 1.0 - float((v * v) @ np.arange(n + 1)) / j, float(vals[0]) / j

    def _check_scan(self, name: str, scan) -> tuple[Outcome, float]:
        """Row-by-row LAPACK comparison; returns the outcome and the LAPACK maximum inversion."""
        n, q = scan.n_molecules, scan.q
        k = int(round(q * n))
        worst = 0.0
        best = -math.inf
        problems = []
        for row in scan.rows:
            inv, energy = self._lapack_row(n, k, row.kappa)
            best = max(best, inv)
            worst = max(worst, abs(inv - row.inversion), abs(energy - row.scaled_energy))
            if not row.converged:
                problems.append(f"row at kappa={row.kappa} flagged non-converged")
        if worst > TOL_ROW:
            problems.append(f"rows differ from LAPACK by {worst:.2e} > {TOL_ROW:.0e}")
        note = f"{len(scan.rows)} rows within {worst:.1e} of LAPACK"
        if k > 0:
            # the grid is centred on the coupling where level k crosses j*omega0
            diag, off = ref.jc_chain(n, scan.kappa_center)
            level = float(sla.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                               select_range=(k, k))[0])
            miss = abs(level - n / 2.0) / (n / 2.0)
            note += f"; level {k} at the crossing is j*omega0 to {miss:.1e}"
            if miss > TOL_ROW:
                problems.append(f"level {k} at kappa={scan.kappa_center} misses j*omega0 "
                                f"by {miss:.2e} (relative)")
        ok = not problems
        return Outcome(name, True, ok, note if ok else "; ".join(problems)), best

    def check(self, kept: dict) -> list[Outcome]:
        results = []
        maxima = {}
        for n in PIPELINE_NS:
            name = f"scan/q{PIPELINE_Q}/N{n}"
            outcome, maxima[n] = self._check_scan(name, kept[name])
            results.append(outcome)
        fit = kept["fit"]
        ns = np.array(PIPELINE_NS, dtype=np.float64)
        unscaled = np.array([n / 2.0 * maxima[n] for n in PIPELINE_NS])
        slope = float(np.polyfit(np.log(ns), np.log(unscaled), 1)[0])
        diff = abs(slope - fit.slope)
        results.append(Outcome("fit", True, diff <= 1e-8,
                               f"slope {fit.slope:.10f}, LAPACK refit {slope:.10f} "
                               f"(difference {diff:.1e})"))
        name = f"scan/q0/N{GROUND_N}"
        results.append(self._check_scan(name, kept[name])[0])
        return results

    def counts(self, kept: dict) -> dict[str, float]:
        return {"jaynes_cummings.scan_rows": len(kept[f"scan/q0/N{GROUND_N}"].rows)}


WORKLOADS = {w.name: w for w in (CollapseTarget(), TowRefine(), EsqptOracle())}
