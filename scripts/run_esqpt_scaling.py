#!/usr/bin/env python3
"""Finite-size scaling of the excited-state transition.

For each molecule count N, targets eigenvector k = q*N, scans the coupling
over the auto-refocused window, and regresses the maximum unscaled
inversion against N on log-log axes.  The full oracle run (N up to 3200,
both spectrum ratios, two field frequencies) takes a few seconds; --quick
cuts it down for a smoke check.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eigentow import JCParams, fit_critical_exponent, scan_kappa
from eigentow.io import save_exponent_csv, save_scan_csv

FULL_NS = (100, 200, 400, 800, 1600, 3200)
QUICK_NS = (100, 200, 400)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small-N smoke run")
    ap.add_argument("--qs", type=float, nargs="+", default=[0.1, 0.4])
    ap.add_argument("--omegas", type=float, nargs="+", default=[2.0, 3.0])
    ap.add_argument("--method", choices=("oracle", "towing"), default="oracle")
    ap.add_argument("--out-dir", default="esqpt_out")
    args = ap.parse_args()

    ns = QUICK_NS if args.quick else FULL_NS
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = []
    t0 = time.perf_counter()
    for omega in args.omegas:
        for q in args.qs:
            results = []
            for n in ns:
                params = JCParams(n_molecules=n, omega=omega)
                res = scan_kappa(params, q, method=args.method)
                save_scan_csv(res, out / f"scan_w{omega:g}_q{q:g}_n{n}.csv")
                results.append(res)
                print(
                    f"  scanned N={n} q={q} omega={omega:g}"
                    f" max_inv={res.max_row().inversion:.5f}"
                    f" [{time.perf_counter() - t0:.0f}s]",
                    flush=True,
                )
            table = fit_critical_exponent(results, q=q)
            tables.append(table)
            print(
                f"omega={omega:g} q={q}: slope = {table.slope:.4f}"
                f" +- {table.ci95:.4f} (95% CI, {table.n_points} sizes)"
            )
    save_exponent_csv(tables, out / "exponents.csv")
    print(f"wrote {out / 'exponents.csv'} in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
