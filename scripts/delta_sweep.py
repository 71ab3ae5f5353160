#!/usr/bin/env python3
"""Sweep the decay rate delta for one instance and tabulate how the measured
final excitation and the rigorous bound both shrink linearly with delta.

    python3 scripts/delta_sweep.py --deltas 1e-2 1e-3 1e-4 --out runs/sweep
"""

import argparse
import csv
import os

from annealbound import (
    ConstantG,
    IntegratorConfig,
    Schedule,
    evaluate_bound,
    evolve,
    generate_random_problem,
)
from annealbound.schedule import T_MAX_K


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--n-spins", type=int, default=2)
    ap.add_argument("--g0", type=float, default=0.125)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--t-max-k", type=float, default=T_MAX_K)
    ap.add_argument("--deltas", type=float, nargs="+", default=[1e-2, 1e-3])
    ap.add_argument("--gap-mode", choices=["measured", "bounded", "unit"], default="measured")
    ap.add_argument("--out", default="runs/delta_sweep_script")
    args = ap.parse_args()

    problem = generate_random_problem(seed=args.seed, n_spins=args.n_spins)
    rows = []
    for delta in args.deltas:
        schedule = Schedule(
            delta=delta, c=args.c, g=ConstantG(args.g0), n_spins=args.n_spins
        )
        t_max = schedule.horizon(t_max_k=args.t_max_k)
        traj = evolve(problem, schedule, IntegratorConfig(max_time=t_max))
        report = evaluate_bound(
            problem, schedule, t_max=t_max, gap_mode=args.gap_mode
        )
        rows.append(
            {
                "delta": delta,
                "t_max": t_max,
                "final_excitation": traj.final_excitation,
                "bound_total": report.total,
                "slack_ratio": report.total / traj.final_excitation
                if traj.final_excitation > 0
                else float("inf"),
            }
        )
        print(
            f"delta={delta:8.1e}  exc={traj.final_excitation:.4e}  "
            f"bound={report.total:.4e}  slack x{rows[-1]['slack_ratio']:.2f}"
        )

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "delta_sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"table -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
