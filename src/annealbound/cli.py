"""Command line front end.

Verbs: certify, spectrum, evolve, bound, run, fit-gap, reparam. Every verb
reads a JSON config (--config), writes its artifacts under --out, and prints
a one-line summary. Exit codes: 0 success, 1 a run or certificate failed,
2 the config or inputs were invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bound import evaluate_bound, integrand_samples_to_csv
from .dynamics import IntegratorConfig, evolve, trajectory_sidecar, trajectory_to_csv
from .errors import ConfigError, ValidationError
from .experiment import ExperimentConfig, generate_random_problem, run_experiment
from .ising import IsingProblem
from .reparam import build_reparam_map, s_function_from_json
from .schedule import Schedule, certify
from .spectrum import fit_gap_constants, gap_profile, profile_to_csv


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _time_grid(spec: dict, schedule: Schedule) -> np.ndarray:
    lo = spec.get("lo", 0.0)
    if "hi" in spec:
        hi = spec["hi"]
    elif schedule.delta > 0:
        hi = 10.0 / schedule.delta
    else:
        raise ConfigError("t_grid needs an explicit 'hi' when delta = 0")
    points = spec.get("points", 200)
    spacing = spec.get("spacing", "log_u" if schedule.delta > 0 else "linear")
    if spacing == "linear":
        return np.linspace(lo, hi, points)
    if spacing == "log_u":
        if schedule.delta == 0:
            raise ConfigError("log_u spacing needs delta > 0")
        u = np.geomspace(
            schedule.delta * lo + schedule.c, schedule.delta * hi + schedule.c, points
        )
        t = (u - schedule.c) / schedule.delta
        t[0], t[-1] = lo, hi
        return t
    raise ConfigError(f"unknown t_grid spacing {spacing!r}")


def _t_max_k(args) -> float:
    """--t-max-k, or the horizon constant K = 10 when the flag is not given."""
    return 10.0 if args.t_max_k is None else args.t_max_k


def _schedule_from(data: dict) -> Schedule:
    return Schedule.from_json(data["schedule"] if "schedule" in data else data)


def cmd_certify(args) -> int:
    data = _load_json(args.config)
    schedule = _schedule_from(data)
    cert = certify(
        schedule,
        horizon=data.get("horizon"),
        grid_points=data.get("grid_points", 10_000),
        l=data.get("l", 0.5),
        c_prime=data.get("c_prime"),
        c_double_prime=data.get("c_double_prime"),
    )
    _write_json(os.path.join(args.out, "certificate.json"), cert.to_json())
    if cert.passed:
        print(
            f"certify: PASS  L={cert.L:g} (cap 1/(3N-2)={1/(3*cert.n_spins-2):g}) "
            f"c'={cert.c_prime:g} c''={cert.c_double_prime:g} m={cert.m:g}"
        )
        return 0
    where = "" if cert.offending_t is None else f" at t={cert.offending_t:g}"
    print(f"certify: FAIL  {cert.reason}{where}")
    return 1


def cmd_spectrum(args) -> int:
    data = _load_json(args.config)
    problem = IsingProblem.from_json(data["problem"])
    schedule = _schedule_from(data)
    t_grid = _time_grid(data.get("t_grid", {}), schedule)
    snapshots = gap_profile(problem, schedule, t_grid)
    out = os.path.join(args.out, "gap_profile.csv")
    os.makedirs(args.out, exist_ok=True)
    profile_to_csv(snapshots, out)
    gaps = [s.gap for s in snapshots]
    print(
        f"spectrum: {len(snapshots)} snapshots, min gap {min(gaps):.6g} "
        f"at t={snapshots[int(np.argmin(gaps))].t:g} -> {out}"
    )
    return 0


def cmd_evolve(args) -> int:
    data = _load_json(args.config)
    problem = IsingProblem.from_json(data["problem"])
    schedule = _schedule_from(data)
    integ_data = data.get("integrator", {})
    if integ_data.get("max_time") is None:
        if schedule.delta == 0:
            raise ConfigError("integrator.max_time required when delta = 0")
        integ_data = dict(integ_data, max_time=_t_max_k(args) / schedule.delta)
    config = IntegratorConfig(**integ_data)
    record = evolve(problem, schedule, config)
    os.makedirs(args.out, exist_ok=True)
    trajectory_to_csv(record, os.path.join(args.out, "trajectory.csv"))
    _write_json(
        os.path.join(args.out, "trajectory.json"),
        trajectory_sidecar(record, problem, schedule, config),
    )
    status = "FAILED" if record.failed else "ok"
    print(
        f"evolve: {status}  {record.n_steps} steps, dt={record.dt:g}, "
        f"final excitation {record.final_excitation:.6g}, "
        f"max norm drift {record.norm_drift.max():.3g}"
    )
    return 1 if record.failed else 0


def cmd_bound(args) -> int:
    data = _load_json(args.config)
    problem = IsingProblem.from_json(data["problem"])
    schedule = _schedule_from(data)
    report = evaluate_bound(
        problem,
        schedule,
        t_max=data.get("t_max"),
        gap_mode=args.gap_mode or data.get("gap_mode", "measured"),
        quadrature_points=data.get("quadrature_points", 1000),
        l=data.get("l", 0.5),
        t_max_k=_t_max_k(args),
        tails=data.get("tails", True),
    )
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "bound_report.json"), report.to_json())
    integrand_samples_to_csv(report, os.path.join(args.out, "integrand_samples.csv"))
    print(
        f"bound[{report.gap_mode}]: total {report.total:.6g} = "
        f"initial {report.term_initial:.3g} + limit {report.term_limit:.3g} + "
        f"int|H''| {report.integral_second_deriv:.3g} + int 7|H'|^2 "
        f"{report.integral_first_deriv_sq:.3g} + tails "
        f"{report.tail_second_deriv:.3g}/{report.tail_first_deriv_sq:.3g}"
    )
    return 0


def cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    manifest = run_experiment(
        config,
        out_dir=args.out,
        jobs=args.jobs,
        seed_override=args.seed,
        gap_mode_override=args.gap_mode,
        t_max_k_override=args.t_max_k,
    )
    for run in manifest.runs:
        tag = "ok " if run["ok"] else "FAIL"
        extra = run.get("error") or (
            f"exc {run.get('final_excitation', float('nan')):.4g} <= "
            f"total {run.get('bound_total', float('nan')):.4g}"
        )
        print(f"run {run['index']:3d} [{tag}] {run['dir']} {run['labels']} {extra}")
    print(
        f"run: {len(manifest.runs)} runs, all_ok={manifest.all_ok}, "
        f"manifest -> {os.path.join(manifest.out_dir, 'manifest.json')}"
    )
    return 0 if manifest.all_ok else 1


def cmd_fit_gap(args) -> int:
    data = _load_json(args.config)
    if "problems" in data:
        problems = [IsingProblem.from_json(p) for p in data["problems"]]
    else:
        ens = data["ensemble"]
        seeds = ens["seeds"] if args.seed is None else [args.seed + i for i in range(len(ens["seeds"]))]
        problems = [
            generate_random_problem(
                seed=seed,
                n_spins=n,
                k_max=ens.get("k_max", 2),
                field_scale=ens.get("field_scale", 0.5),
                coupling_scale=ens.get("coupling_scale", 1.0),
            )
            for n in ens["sizes"]
            for seed in seeds
        ]
    grid_spec = data.get("gamma_grid", {})
    grid = np.geomspace(
        grid_spec.get("lo", 0.01), grid_spec.get("hi", 2.0), grid_spec.get("points", 64)
    )
    fit = fit_gap_constants(problems, grid)
    _write_json(os.path.join(args.out, "gap_fit.json"), fit.to_json())
    note = " (underdetermined)" if fit.underdetermined else ""
    print(
        f"fit-gap: a={fit.a_fit:.6g} b={fit.b_fit:.6g}{note} over "
        f"{len(problems)} instances, sizes {sorted(fit.per_size_A)}"
    )
    return 0


def cmd_reparam(args) -> int:
    data = _load_json(args.config)
    s_fn = s_function_from_json(data["s"])
    grid_spec = data.get("t_grid", {})
    t_grid = np.linspace(
        0.0, grid_spec.get("hi", 25.0), grid_spec.get("points", 501)
    )
    rmap = build_reparam_map(s_fn, t_grid)
    os.makedirs(args.out, exist_ok=True)
    rmap.to_csv(os.path.join(args.out, "reparam.csv"))
    _write_json(
        os.path.join(args.out, "reparam.json"),
        {"s": s_fn.to_json(), "map": rmap.to_json()},
    )
    print(
        f"reparam: {t_grid.size} points, t_tilde({t_grid[-1]:g}) = "
        f"{rmap.t_tilde_values[-1]:.6g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealbound",
        description="Annealing schedules, spectra, dynamics, and excitation bounds "
        "for transverse-field Ising problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "certify": (cmd_certify, "check the convergence conditions of a schedule"),
        "spectrum": (cmd_spectrum, "gap profile along a schedule"),
        "evolve": (cmd_evolve, "integrate the Schrodinger dynamics"),
        "bound": (cmd_bound, "evaluate the excitation bound term by term"),
        "run": (cmd_run, "full pipeline over a config, with sweeps"),
        "fit-gap": (cmd_fit_gap, "fit the gap lower-bound constants on an ensemble"),
        "reparam": (cmd_reparam, "map a bounded s(t) anneal onto the decay clock"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
        p.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
        p.add_argument(
            "--gap-mode", choices=["measured", "bounded", "unit"], default=None,
            help="override the gap model used in bound integrands",
        )
        p.add_argument(
            "--t-max-k", type=float, default=None,
            help="horizon T_max = K/delta when max_time is not set "
            "(overrides the config's t_max_k; default 10)",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
