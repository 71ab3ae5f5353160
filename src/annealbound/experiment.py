"""Batch pipeline: certify -> gap profile -> evolve -> bound -> verdict.

Configs are JSON validated against a schema (errors carry JSON pointers);
sweeps expand over delta / n_spins / g0 axes; each sweep point writes its
artifacts under a content-hash-prefixed directory so reruns of the same
inputs land in the same place. Random problem instances are deterministic
functions of their seed.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .bound import QUAD_PANELS, compare, evaluate_bound, integrand_samples_to_csv
from .dynamics import IntegratorConfig, evolve, trajectory_sidecar, trajectory_to_csv
from .errors import ConfigError, ValidationError
from .ising import IsingProblem, build_diagonal
from .provenance import content_hash
from .schedule import T_MAX_K, Schedule, certify
# gap_profile stays bound here: the benchmark's tracer wraps it by this name.
from .spectrum import build_gap_curve, gap_profile, profile_to_csv

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["problem", "schedule"],
    "additionalProperties": False,
    "properties": {
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "inline": {"type": "object"},
                "file": {"type": "string"},
                "random": {
                    "type": "object",
                    "required": ["seed", "n_spins"],
                    "additionalProperties": False,
                    "properties": {
                        "seed": {"type": "integer", "minimum": 0},
                        "n_spins": {"type": "integer", "minimum": 1},
                        "k_max": {"type": "integer", "minimum": 1},
                        "field_scale": {"type": "number", "exclusiveMinimum": 0},
                        "coupling_scale": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "schedule": {
            "type": "object",
            "required": ["delta", "c", "n_spins", "g"],
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number", "minimum": 0},
                "c": {"type": "number", "exclusiveMinimum": 0},
                "n_spins": {"type": "integer", "minimum": 1},
                "g": {"type": "object", "required": ["kind"]},
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_time": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "record_stride": {"type": ["integer", "null"], "minimum": 1},
                "norm_tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "gap_mode": {"enum": ["measured", "bounded", "unit"]},
        "tails": {"type": "boolean"},
        "t_max_k": {"type": "number", "exclusiveMinimum": 0},
        "certify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"l": {"type": "number", "exclusiveMinimum": 0}},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
                "n_spins": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
                "g0": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
            },
        },
        "out_dir": {"type": "string"},
    },
}

_validator = Draft202012Validator(CONFIG_SCHEMA)


def _load_json(path) -> object:
    """The parsed JSON file at path; malformed JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def validate_config(data: dict) -> None:
    errors = sorted(_validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"config invalid at {pointer}: {err.message}")


# Draws generate_random_problem makes before it gives up on a degenerate instance.
RANDOM_PROBLEM_DRAWS = 100


def generate_random_problem(
    seed: int,
    n_spins: int,
    k_max: int | None = None,
    *,
    field_scale: float = 0.5,
    coupling_scale: float = 1.0,
) -> IsingProblem:
    """Random instance with every k-body coupling up to k_max populated.

    Single-site fields are always included to break ground-state degeneracy
    generically; instances whose classical spectrum still has a gap below
    1e-6 are resampled from the same stream, so the result is a
    deterministic function of the seed.
    """
    if n_spins < 1:
        raise ValidationError(f"n_spins must be >= 1, got {n_spins}")
    k_max = min(n_spins, 2) if k_max is None else k_max
    if not (1 <= k_max <= n_spins):
        raise ValidationError(f"k_max must be in [1, {n_spins}], got {k_max}")
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_PROBLEM_DRAWS):
        terms = [
            ((i,), float(rng.uniform(-field_scale, field_scale)))
            for i in range(n_spins)
        ]
        for k in range(2, k_max + 1):
            for sites in itertools.combinations(range(n_spins), k):
                terms.append((sites, float(rng.uniform(-coupling_scale, coupling_scale))))
        problem = IsingProblem(n_spins=n_spins, terms=tuple(terms))
        energies = np.sort(build_diagonal(problem).energies)
        if energies[1] - energies[0] >= 1e-6:
            return problem
    raise RuntimeError(
        f"no nondegenerate instance after {RANDOM_PROBLEM_DRAWS} draws; "
        "increase field_scale to break the degeneracy"
    )


@dataclass(frozen=True)
class RunSpec:
    index: int
    problem: dict
    schedule: dict
    integrator: dict
    gap_mode: str
    tails: bool
    t_max: float
    certify: dict
    labels: dict
    run_hash: str
    out_dir: str


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    base_dir: str = "."

    def __post_init__(self):
        validate_config(self.raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(raw=_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))

    def _resolve_problem(self, spec: dict) -> IsingProblem:
        if "inline" in spec:
            return IsingProblem.from_json(spec["inline"])
        if "file" in spec:
            return IsingProblem.from_json(_load_json(os.path.join(self.base_dir, spec["file"])))
        # The schema's keys are generate_random_problem's parameter names.
        return generate_random_problem(**spec["random"])

    def expand(self, out_dir: str) -> list[RunSpec]:
        raw = self.raw
        gap_mode = raw.get("gap_mode", "measured")
        tails = raw.get("tails", True)
        integ_raw = raw.get("integrator", {})

        sweep = raw.get("sweep", {})
        axes = [(name, sweep[name]) for name in ("delta", "n_spins", "g0") if name in sweep]
        combos = list(itertools.product(*(vals for _, vals in axes))) or [()]

        specs = []
        for index, combo in enumerate(combos):
            labels = dict(zip((name for name, _ in axes), combo))
            sched_json = copy.deepcopy(raw["schedule"])
            prob_spec = copy.deepcopy(raw["problem"])
            if "delta" in labels:
                sched_json["delta"] = labels["delta"]
            if "g0" in labels:
                if "g0" not in sched_json["g"]:
                    raise ConfigError(
                        f"config invalid at /sweep/g0: g kind "
                        f"{sched_json['g'].get('kind')!r} has no g0 field"
                    )
                sched_json["g"]["g0"] = labels["g0"]
            if "n_spins" in labels:
                if "random" not in prob_spec:
                    raise ConfigError(
                        "config invalid at /sweep/n_spins: only random problems can sweep size"
                    )
                prob_spec["random"]["n_spins"] = labels["n_spins"]
                sched_json["n_spins"] = labels["n_spins"]

            problem = self._resolve_problem(prob_spec)
            schedule = Schedule.from_json(sched_json)
            if problem.n_spins != schedule.n_spins:
                raise ConfigError(
                    f"config invalid at /schedule/n_spins: schedule says "
                    f"{schedule.n_spins}, problem has {problem.n_spins}"
                )
            t_max = float(_config_horizon(
                schedule, integ_raw.get("max_time"), "/integrator/max_time",
                raw.get("t_max_k", T_MAX_K),
            ))
            if tails and schedule.delta == 0:
                raise ConfigError(
                    "config invalid at /tails: analytic tails need delta > 0"
                )

            integ = IntegratorConfig(**{**integ_raw, "max_time": t_max}).to_json()
            # The certify block enters the hash only when present, and the
            # fixed panel count stays in it, so older run directories keep
            # their names.
            run_hash = content_hash({
                "problem": problem.to_json(),
                "schedule": schedule.to_json(),
                "integrator": integ,
                "gap_mode": gap_mode,
                "tails": tails,
                "t_max": t_max,
                "quadrature_points": QUAD_PANELS,
                **({"certify": raw["certify"]} if "certify" in raw else {}),
            })
            specs.append(RunSpec(
                index=index,
                problem=problem.to_json(),
                schedule=schedule.to_json(),
                integrator=integ,
                gap_mode=gap_mode,
                tails=tails,
                t_max=t_max,
                certify=raw.get("certify", {}),
                labels=labels,
                run_hash=run_hash,
                out_dir=os.path.join(out_dir, run_hash[:12]),
            ))
        return specs


def _config_horizon(schedule: Schedule, t_max, pointer: str, t_max_k: float = T_MAX_K) -> float:
    """Schedule.horizon for a config setting: a missing or invalid horizon is
    a ConfigError at the JSON pointer of the setting that should give it."""
    try:
        return schedule.horizon(t_max, t_max_k)
    except ValidationError as exc:
        raise ConfigError(f"config invalid at {pointer}: {exc}") from exc


def _write_json(path: str, data: dict) -> None:
    """Sorted, indented JSON with a trailing newline; creates the parent
    directory. The one JSON writer for run artifacts and CLI outputs."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _execute_run(spec: RunSpec) -> dict:
    started = time.perf_counter()
    files: list[str] = []

    def emit(name: str) -> str:
        files.append(name)
        return os.path.join(spec.out_dir, name)

    base = {
        "index": spec.index, "run_hash": spec.run_hash,
        "dir": os.path.basename(spec.out_dir), "labels": spec.labels,
    }
    try:
        problem = IsingProblem.from_json(spec.problem)
        schedule = Schedule.from_json(spec.schedule)
        _write_json(emit("problem.json"), problem.to_json())
        _write_json(emit("schedule.json"), schedule.to_json())

        cert = None
        if schedule.delta > 0:
            cert = certify(schedule, horizon=spec.t_max, **spec.certify)
            _write_json(emit("certificate.json"), cert.to_json())
        if spec.tails and (cert is None or not cert.passed):
            reason = "delta = 0" if cert is None else cert.reason
            raise ValidationError(f"tails requested but schedule not certified: {reason}")

        integ = IntegratorConfig(**spec.integrator)
        trajectory = evolve(problem, schedule, integ)
        trajectory_to_csv(trajectory, emit("trajectory.csv"))
        _write_json(
            emit("trajectory.json"),
            trajectory_sidecar(trajectory, problem, schedule, integ),
        )

        curve = None
        if spec.gap_mode == "measured" and schedule.delta > 0:
            curve = build_gap_curve(problem, schedule, spec.t_max)
            profile_to_csv(curve.snapshots, emit("gap_profile.csv"))

        gap_mode = spec.gap_mode
        if gap_mode == "measured" and schedule.delta == 0:
            # constant Gamma has a constant gap; the power-law lower bound
            # machinery handles it without a log-clock profile
            gap_mode = "bounded"
        # Tails get a passed certificate; without tails l is never read.
        report = evaluate_bound(
            problem, schedule, t_max=spec.t_max, gap_mode=gap_mode,
            certificate=cert if (cert is not None and cert.passed) else None,
            curve=curve, tails=spec.tails,
        )
        _write_json(emit("bound_report.json"), report.to_json())
        integrand_samples_to_csv(report, emit("integrand_samples.csv"))

        atol = 1e-6 if schedule.delta == 0 else 0.0
        verdict = compare(report, trajectory, atol=atol)
        _write_json(emit("verdict.json"), verdict.to_json())

        ok = verdict.satisfied and not trajectory.failed
        return {
            **base, "ok": bool(ok),
            "trajectory_failed": trajectory.failed,
            "failure_reason": trajectory.failure_reason,
            "certificate_passed": None if cert is None else cert.passed,
            "verdict": verdict.to_json(),
            "final_excitation": trajectory.final_excitation,
            "bound_total": report.total,
            "files": files,
            "seconds": round(time.perf_counter() - started, 3),
        }
    except Exception as exc:  # per-run isolation: errors surface in the manifest
        return {
            **base, "ok": False, "error": f"{type(exc).__name__}: {exc}",
            "files": files, "seconds": round(time.perf_counter() - started, 3),
        }


@dataclass(frozen=True)
class RunManifest:
    artifact_version: str
    config_hash: str
    out_dir: str
    runs: tuple
    all_ok: bool
    total_seconds: float
    created_utc: str

    def to_json(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "config_hash": self.config_hash,
            "out_dir": self.out_dir,
            "n_runs": len(self.runs),
            "all_ok": self.all_ok,
            "runs": list(self.runs),
            "total_seconds": self.total_seconds,
            "created_utc": self.created_utc,
        }


OUTPUT_README = """\
# Run outputs

Layout: one directory per sweep point, named by the first 12 hex digits of
the content hash of that run's full input (problem, schedule, integrator,
bound settings). `manifest.json` at this level indexes every run.

Per-run files:

- `problem.json` - coupling terms of the diagonal cost Hamiltonian.
- `schedule.json` - the field schedule Gamma(t) = (delta*t + c)^(-g(t)).
- `certificate.json` - machine-checked convergence conditions and the
  envelope constants (L, l, c', c'', m) the tails use. Absent for delta = 0.
- `trajectory.csv` - columns t, gamma, overlap_sq, excitation_norm,
  norm_drift at the record points.
- `trajectory.json` - integrator settings, step count, provenance hash.
- `gap_profile.csv` - columns t, gamma, eps0, eps1, gap at the gap curve's
  own samples: the log-clock nodes plus the refinement points near the
  minimum gap (measured gap mode only).
- `bound_report.json` - every term of the excitation bound, the constants
  entering the tails, and quadrature diagnostics.
- `integrand_samples.csv` - columns t, gamma, gap, integrand_second_deriv,
  integrand_first_deriv_sq for plotting.
- `verdict.json` - whether final excitation <= bound total, with the slack
  ratio.

All floats are written with full repr precision; rerunning the same config
on the same build reproduces the data files byte for byte (the manifest
carries timing and is exempt), provided the BLAS thread count is the same,
for example OPENBLAS_NUM_THREADS=1: dense LAPACK and ARPACK eigensolves
round differently with a different number of threads.
"""


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None, jobs: int = 1
) -> RunManifest:
    started = time.perf_counter()
    out_dir = os.path.abspath(out_dir or config.raw.get("out_dir", "runs"))
    specs = config.expand(out_dir)
    if jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_execute_run, specs))
    else:
        results = [_execute_run(s) for s in specs]
    results.sort(key=lambda r: r["index"])

    manifest = RunManifest(
        artifact_version=__version__,
        config_hash=content_hash(config.raw),
        out_dir=out_dir,
        runs=tuple(results),
        all_ok=all(r["ok"] for r in results),
        total_seconds=round(time.perf_counter() - started, 3),
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    _write_json(os.path.join(out_dir, "manifest.json"), manifest.to_json())
    with open(os.path.join(out_dir, "OUTPUT_README.md"), "w") as fh:
        fh.write(OUTPUT_README)
    return manifest
