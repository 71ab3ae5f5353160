#!/usr/bin/env python3
"""Fit the empirical gap lower-bound constants Delta >= A(N) Gamma^N on a
random 2-local ensemble and report the size trend A(N) = a sqrt(N) e^(-bN).

    python3 scripts/fit_gap_ensemble.py --sizes 2 3 4 5 6 --seeds-per-size 4
"""

import argparse
import json
import os

import numpy as np

from annealbound import fit_gap_constants, generate_random_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    ap.add_argument("--seeds-per-size", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--k-max", type=int, default=None, help="default min(N, 2)")
    ap.add_argument("--grid-lo", type=float, default=0.01)
    ap.add_argument("--grid-hi", type=float, default=2.0)
    ap.add_argument("--grid-points", type=int, default=64)
    ap.add_argument("--out", default="runs/gap_fit")
    args = ap.parse_args()

    ensemble = [
        generate_random_problem(seed=args.seed0 + s, n_spins=n, k_max=args.k_max)
        for n in args.sizes
        for s in range(args.seeds_per_size)
    ]
    grid = np.geomspace(args.grid_lo, args.grid_hi, args.grid_points)
    fit = fit_gap_constants(ensemble, grid)

    print(f"{len(ensemble)} instances, Gamma grid [{args.grid_lo:g}, {args.grid_hi:g}]")
    for n in sorted(fit.per_size_A):
        print(
            f"  N={n}:  A_emp={fit.per_size_A[n]:.4e}   "
            f"model A(N)={fit.A_of(n):.4e}"
        )
    note = "  (underdetermined: need >= 3 sizes)" if fit.underdetermined else ""
    print(f"fit: a={fit.a_fit:.6g}  b={fit.b_fit:.6g}{note}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "gap_fit.json")
    with open(path, "w") as fh:
        json.dump(fit.to_json(), fh, indent=2, sort_keys=True)
    print(f"fit -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
