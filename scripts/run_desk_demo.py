#!/usr/bin/env python3
"""Desk-scale walkthrough: one random instance, certified schedule, dynamics,
and the term-by-term excitation bound, printed as a narrative.

    python3 scripts/run_desk_demo.py --n-spins 3 --delta 1e-3 --out runs/demo
"""

import argparse
import json
import os

from annealbound import (
    ConstantG,
    IntegratorConfig,
    Schedule,
    certify,
    compare,
    evaluate_bound,
    evolve,
    generate_random_problem,
    trajectory_to_csv,
)
from annealbound.schedule import T_MAX_K


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-spins", type=int, default=2)
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--g0", type=float, default=None, help="defaults to 1/(4N)")
    ap.add_argument("--t-max-k", type=float, default=T_MAX_K)
    ap.add_argument("--out", default="runs/demo")
    args = ap.parse_args()

    n = args.n_spins
    g0 = args.g0 if args.g0 is not None else 1.0 / (4 * n)
    problem = generate_random_problem(seed=args.seed, n_spins=n)
    schedule = Schedule(delta=args.delta, c=args.c, g=ConstantG(g0), n_spins=n)
    t_max = schedule.horizon(t_max_k=args.t_max_k)

    print(f"instance: seed {args.seed}, N={n}, {len(problem.terms)} terms")
    print(f"schedule: Gamma = ({args.delta:g} t + {args.c:g})^(-{g0:g}), T = {t_max:g}")

    cert = certify(schedule, horizon=t_max)
    tag = "PASS" if cert.passed else f"FAIL ({cert.reason})"
    print(f"certify:  {tag}  L={cert.L:g} < 1/(3N-2)={1/(3*n-2):g}, m={cert.m:g}")

    traj = evolve(problem, schedule, IntegratorConfig(max_time=t_max))
    print(
        f"evolve:   {traj.n_steps} steps, dt={traj.dt:g}, "
        f"final excitation {traj.final_excitation:.4e}, "
        f"max |norm-1| {abs(traj.norm_drift).max():.1e}"
    )

    report = evaluate_bound(problem, schedule, t_max=t_max, certificate=cert)
    print(
        f"bound:    total {report.total:.4e} = initial {report.term_initial:.2e}"
        f" + integrals {report.integral_second_deriv:.2e}/"
        f"{report.integral_first_deriv_sq:.2e}"
        f" + tails {report.tail_second_deriv:.2e}/{report.tail_first_deriv_sq:.2e}"
    )

    verdict = compare(report, traj)
    slack = f", slack x{verdict.slack_ratio:.1f}" if verdict.slack_ratio else ""
    print(f"verdict:  excitation <= bound is {verdict.satisfied}{slack}")

    os.makedirs(args.out, exist_ok=True)
    trajectory_to_csv(traj, os.path.join(args.out, "trajectory.csv"))
    with open(os.path.join(args.out, "bound_report.json"), "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
    with open(os.path.join(args.out, "verdict.json"), "w") as fh:
        json.dump(verdict.to_json(), fh, indent=2, sort_keys=True)
    print(f"artifacts -> {args.out}")
    return 0 if verdict.satisfied else 1


if __name__ == "__main__":
    raise SystemExit(main())
