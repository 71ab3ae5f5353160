"""Command line front end.

Verbs: certify, spectrum, evolve, bound, run, fit-gap, reparam. Every verb
reads a JSON config (--config), writes its artifacts under --out, and prints
a one-line summary. A verb passes on only the settings its config sets, so
every default is the library's own, and rejects a top-level config key it
does not read. Exit codes: 0 success, 1 a run or certificate failed, 2 the
config or inputs were invalid.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .bound import GAP_MODES, evaluate_bound, integrand_samples_to_csv
from .dynamics import IntegratorConfig, evolve, trajectory_sidecar, trajectory_to_csv
from .errors import ConfigError, ValidationError
from .experiment import (
    ExperimentConfig, _config_horizon, _load_json, _write_json, generate_random_problem,
    run_experiment,
)
from .ising import IsingProblem
from .quadrature import log_clock_edges
from .reparam import build_reparam_map, s_function_from_json
from .schedule import T_MAX_K, Schedule, certify
from .spectrum import fit_gap_constants, gap_profile, profile_to_csv


def _load_config(path: str, *keys: str) -> dict:
    """The JSON object at path; a top-level key outside `keys` is a ConfigError."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config is not a JSON object")
    if "schedule" in keys and "schedule" not in data:
        keys += ("delta", "c", "n_spins", "g")  # a bare schedule's entries
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"config has unknown key {unknown[0]!r}")
    return data


def _entry(data: dict, key: str):
    """data[key], or a ConfigError naming the missing key."""
    if key not in data:
        raise ConfigError(f"config has no {key!r} entry")
    return data[key]


def _given(values: dict, *names) -> dict:
    """The entries among `names` that `values` (a config, or the parsed flags
    as vars(args)) sets; None counts as not set."""
    return {k: values[k] for k in names if values.get(k) is not None}


def _time_grid(spec: dict, schedule: Schedule) -> np.ndarray:
    lo = spec.get("lo", 0.0)
    hi = _config_horizon(schedule, spec.get("hi"), "/t_grid/hi")
    points = spec.get("points", 200)
    spacing = spec.get("spacing", "log_u" if schedule.delta > 0 else "linear")
    if spacing == "linear":
        return np.linspace(lo, hi, points)
    if spacing == "log_u":
        return log_clock_edges(schedule.delta, schedule.c, hi, points - 1, t_lo=lo)
    raise ConfigError(f"unknown t_grid spacing {spacing!r}")


def _schedule_from(data: dict) -> Schedule:
    return Schedule.from_json(data["schedule"] if "schedule" in data else data)


def cmd_certify(args) -> int:
    data = _load_config(args.config, "schedule", "horizon", "l", "c_prime", "c_double_prime")
    schedule = _schedule_from(data)
    cert = certify(schedule, **_given(data, "horizon", "l", "c_prime", "c_double_prime"))
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
    data = _load_config(args.config, "problem", "schedule", "t_grid")
    problem = IsingProblem.from_json(_entry(data, "problem"))
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
    data = _load_config(args.config, "problem", "schedule", "integrator")
    problem = IsingProblem.from_json(_entry(data, "problem"))
    schedule = _schedule_from(data)
    integ_data = data.get("integrator", {})
    unknown = sorted(set(integ_data) - {f.name for f in fields(IntegratorConfig)})
    if unknown:
        raise ConfigError(f"unknown integrator key {unknown[0]!r}")
    max_time = _config_horizon(
        schedule, integ_data.get("max_time"), "/integrator/max_time",
        **_given(vars(args), "t_max_k"),
    )
    config = IntegratorConfig(**{**integ_data, "max_time": max_time})
    record = evolve(problem, schedule, config)
    _write_json(
        os.path.join(args.out, "trajectory.json"),
        trajectory_sidecar(record, problem, schedule, config),
    )
    trajectory_to_csv(record, os.path.join(args.out, "trajectory.csv"))
    status = "FAILED" if record.failed else "ok"
    print(
        f"evolve: {status}  {record.n_steps} steps, dt={record.dt:g}, "
        f"final excitation {record.final_excitation:.6g}, "
        f"max norm drift {record.norm_drift.max():.3g}"
    )
    return 1 if record.failed else 0


def cmd_bound(args) -> int:
    data = _load_config(args.config, "problem", "schedule", "t_max", "gap_mode", "l", "tails")
    problem = IsingProblem.from_json(_entry(data, "problem"))
    schedule = _schedule_from(data)
    settings = {
        **_given(data, "t_max", "gap_mode", "l", "tails"),
        **_given(vars(args), "gap_mode", "t_max_k"),
    }
    report = evaluate_bound(problem, schedule, **settings)
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
    # Each flag edits the config as written, and the edited config is
    # validated by the same schema, so a flag and a config key that set the
    # same value behave alike and both enter the manifest's config_hash.
    config = ExperimentConfig.from_file(args.config)
    raw = {**config.raw, **_given(vars(args), "gap_mode", "t_max_k")}
    if args.seed is not None:
        if "random" not in raw["problem"]:
            raise ConfigError("--seed sets problem.random.seed, but the problem is not 'random'")
        raw["problem"] = {"random": {**raw["problem"]["random"], "seed": args.seed}}
    manifest = run_experiment(
        ExperimentConfig(raw, config.base_dir), out_dir=args.out, jobs=args.jobs
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
    data = _load_config(args.config, "problems", "ensemble", "gamma_grid")
    if "problems" in data:
        problems = [IsingProblem.from_json(p) for p in data["problems"]]
    else:
        ens = _entry(data, "ensemble")
        seeds = _entry(ens, "seeds")
        if args.seed is not None:
            seeds = [args.seed + i for i in range(len(seeds))]
        shape = _given(ens, "k_max", "field_scale", "coupling_scale")
        problems = [
            generate_random_problem(seed=seed, n_spins=n, **shape)
            for n in _entry(ens, "sizes")
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
    data = _load_config(args.config, "s", "t_grid")
    s_fn = s_function_from_json(_entry(data, "s"))
    grid_spec = data.get("t_grid", {})
    t_grid = np.linspace(
        0.0, grid_spec.get("hi", 25.0), grid_spec.get("points", 501)
    )
    rmap = build_reparam_map(s_fn, t_grid)
    _write_json(
        os.path.join(args.out, "reparam.json"),
        {"s": s_fn.to_json(), "map": rmap.to_json()},
    )
    rmap.to_csv(os.path.join(args.out, "reparam.csv"))
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
    flags = {
        "--seed": dict(
            type=int, default=None,
            help="run: set problem.random.seed; fit-gap: use seeds SEED, SEED+1, ...",
        ),
        "--jobs": dict(type=int, default=1, help="worker processes for sweeps"),
        "--gap-mode": dict(
            choices=GAP_MODES, default=None,
            help="set the gap model used in the bound integrands (config gap_mode)",
        ),
        "--t-max-k": dict(
            type=float, default=None,
            help="horizon T_max = K/delta when max_time is not set "
            f"(config t_max_k; default {T_MAX_K:g})",
        ),
    }
    commands = {
        "certify": (cmd_certify, "check the convergence conditions of a schedule"),
        "spectrum": (cmd_spectrum, "gap profile along a schedule"),
        "evolve": (cmd_evolve, "integrate the Schrodinger dynamics"),
        "bound": (cmd_bound, "evaluate the excitation bound term by term"),
        "run": (cmd_run, "full pipeline over a config, with sweeps"),
        "fit-gap": (cmd_fit_gap, "fit the gap lower-bound constants on an ensemble"),
        "reparam": (cmd_reparam, "map a bounded s(t) anneal onto the decay clock"),
    }
    # Each verb registers only the flags it reads, so argparse rejects the rest.
    reads = {
        "evolve": ["--t-max-k"], "bound": ["--gap-mode", "--t-max-k"],
        "run": list(flags), "fit-gap": ["--seed"],
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        for flag in reads.get(name, []):
            p.add_argument(flag, **flags[flag])
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
