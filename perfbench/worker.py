"""One workload in one process: timed ``run_experiment`` repeats, then checks.

``run.py`` starts this file with the BLAS thread count fixed in the
environment. It imports ``annealbound`` from the ``src`` directory next to
this one, builds the workload's config from the seed, prints
``READY <time.monotonic()>`` just before the first call into
``run_experiment`` (the end of set-up), and with ``--setup-only`` exits there.
Otherwise it calls ``run_experiment(config, out, jobs=1)`` back to back until
``--seconds`` have passed (at least twice, so repeats of one seed can be
compared), checks every sweep point's artifacts, and prints one JSON object as
its last stdout line. Notes go to stderr.

With ``--trace 1`` the repeats alternate untraced and traced, and the traced
ones yield the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

NORM_DRIFT_MAX = 1e-8
# A final excitation fails if it is further from the converged reference than
# both EXCITATION_FLOOR and EXCITATION_STEP_FACTOR times the error of the
# reference's own fixed midpoint step of 0.5, which is the program's default
# step today: it uses the same scheme, so its error matches that one to four
# digits (2-25% on these instances). The error is second order, so the same
# scheme with a step 1.05x longer fails (its error grows by 10%), while any
# integrator more accurate than the fixed step passes. The floor, ten times the reference's own
# tolerance, keeps the check meaningful on a nearly adiabatic instance.
EXCITATION_FLOOR = 1e-3
EXCITATION_STEP_FACTOR = 1.05
# No repeat starts that would end past this, so a run on a slow machine still
# finishes within the benchmark's 180 s limit.
MEASURE_CAP_S = 110.0


def _note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree(out_dir: str) -> tuple[int, int]:
    """(files, bytes) under out_dir."""
    files = size = 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def _read_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def _point_failures(out_dir: str, run: dict) -> list[str]:
    """Reasons one sweep point's verdict fails, from its artifacts alone."""
    if "error" in run:
        return [f"raised {run['error']}"]
    reasons = []
    if not run["ok"]:
        reasons.append("manifest reports not ok")
    if run.get("trajectory_failed"):
        reasons.append(f"trajectory failed: {run.get('failure_reason')}")
    if not math.isfinite(run["bound_total"]):
        reasons.append(f"bound_total {run['bound_total']!r} is not finite")
    with open(os.path.join(out_dir, run["dir"], "trajectory.csv"), newline="") as fh:
        drift = max(float(row["norm_drift"]) for row in csv.DictReader(fh))
    if not drift <= NORM_DRIFT_MAX:
        reasons.append(f"norm drift {drift:.3e} above {NORM_DRIFT_MAX:g}")
    return reasons


def _point_digests(out_dir: str, run: dict) -> dict[str, str]:
    run_dir = os.path.join(out_dir, run["dir"])
    return {name: _sha256(os.path.join(run_dir, name)) for name in sorted(os.listdir(run_dir))}


def check_repeats(out_dirs: list[str]) -> tuple[int, dict, list[dict]]:
    """(attempted, {(repeat, run_hash): reasons}, runs of the first repeat).

    A point fails in a repeat if its own checks fail or if its data files
    differ from the first repeat's; manifest.json carries timing and is
    exempt from the comparison.
    """
    attempted, failures = 0, {}
    first_runs, first_digests = None, None
    for rep, out_dir in enumerate(out_dirs):
        runs = _read_manifest(out_dir)["runs"]
        digests = {r["run_hash"]: _point_digests(out_dir, r) for r in runs if "error" not in r}
        if first_runs is None:
            first_runs, first_digests = runs, digests
        for run in runs:
            attempted += 1
            reasons = _point_failures(out_dir, run)
            if "error" not in run and digests[run["run_hash"]] != first_digests.get(run["run_hash"]):
                reasons.append("data files differ from the first repeat")
            if reasons:
                failures[(rep, run["run_hash"])] = reasons
    return attempted, failures, first_runs


def check_excitation(out_dir: str, runs: list[dict], reference_delta: float) -> list[dict]:
    """Final excitation against the dense reference on the reference_delta points."""
    from reference import MAX_DIM, reference_excitation

    results = []
    for run in runs:
        if "error" in run or run["labels"].get("delta") != reference_delta:
            continue
        run_dir = os.path.join(out_dir, run["dir"])
        with open(os.path.join(run_dir, "problem.json")) as fh:
            problem = json.load(fh)
        if (1 << problem["n_spins"]) > MAX_DIM:
            continue
        with open(os.path.join(run_dir, "schedule.json")) as fh:
            schedule = json.load(fh)
        with open(os.path.join(run_dir, "trajectory.json")) as fh:
            t_max = json.load(fh)["integrator"]["max_time"]
        started = time.perf_counter()
        ref = reference_excitation(problem, schedule, t_max)
        program = run["final_excitation"]
        step_err = abs(ref["coarse"] - ref["value"]) / ref["value"]
        results.append({
            "run_hash": run["run_hash"], "labels": run["labels"],
            "program": program, "reference": ref["value"],
            "rel_err": abs(program - ref["value"]) / ref["value"], "step_err": step_err,
            "tolerance": max(EXCITATION_FLOOR, EXCITATION_STEP_FACTOR * step_err),
            "halvings": ref["halvings"], "seconds": time.perf_counter() - started,
        })
    return results


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, out_dir: str) -> dict:
    """Per-layer metrics of one traced repeat; names as in BENCHMARK.json."""
    applies, apply_s, _ = tracer.totals("ising.apply_hamiltonian")
    gammas, gamma_s, _ = tracer.totals("schedule.gamma")
    certs, cert_s, _ = tracer.totals("schedule.certify")
    diags, diag_s, _ = tracer.totals("spectrum.diagonalize")
    evolves, evolve_s, evolve_self = tracer.totals("dynamics.evolve")
    quads, quad_s, _ = tracer.totals("quadrature.adaptive_integrate")
    _, bound_s, bound_self = tracer.totals("bound.evaluate_bound")
    _, run_s, run_self = tracer.totals("experiment.run_experiment")
    files, size = _tree(out_dir)
    steps = tracer.counters["dynamics.steps"]
    return {
        "ising.apply_hamiltonian.calls": applies,
        "ising.apply_hamiltonian.total_s": apply_s,
        "ising.apply_hamiltonian.us_per_call": 1e6 * apply_s / max(applies, 1),
        "ising.apply_hamiltonian.bytes_computed": tracer.counters["ising.apply_hamiltonian.bytes_computed"],
        "schedule.gamma.calls": gammas,
        "schedule.gamma.total_s": gamma_s,
        "schedule.certify.calls": certs,
        "schedule.certify.total_s": cert_s,
        "spectrum.diagonalize.calls": diags,
        "spectrum.diagonalize.total_s": diag_s,
        "spectrum.diagonalize.ms_per_call": 1e3 * diag_s / max(diags, 1),
        "spectrum.diagonalize.distinct_frac": len(tracer.diagonalized) / max(diags, 1),
        "spectrum.build_gap_curve.total_s": tracer.totals("spectrum.build_gap_curve")[1],
        "spectrum.build_gap_curve.evaluations": tracer.counters["spectrum.build_gap_curve.evaluations"],
        "spectrum.gap_profile.total_s": tracer.totals("spectrum.gap_profile")[1],
        "spectrum.instance_gap_constant.total_s": tracer.totals("spectrum.instance_gap_constant")[1],
        "dynamics.evolve.calls": evolves,
        "dynamics.evolve.total_s": evolve_s,
        "dynamics.evolve.self_s": evolve_self,
        "dynamics.steps": steps,
        "dynamics.h_applies_per_step": (
            tracer.calls_under("ising.apply_hamiltonian", "dynamics.evolve") / max(steps, 1)
        ),
        "dynamics.record_diagonalizations": tracer.calls_under("spectrum.diagonalize", "dynamics.evolve"),
        "quadrature.adaptive_integrate.calls": quads,
        "quadrature.adaptive_integrate.total_s": quad_s,
        "quadrature.adaptive_integrate.evaluations": tracer.counters["quadrature.adaptive_integrate.evaluations"],
        "quadrature.adaptive_integrate.panels": tracer.counters["quadrature.adaptive_integrate.panels"],
        "bound.evaluate_bound.total_s": bound_s,
        "bound.evaluate_bound.self_s": bound_self,
        "bound.compare.calls": tracer.totals("bound.compare")[0],
        "experiment.run_experiment.total_s": run_s,
        "experiment.run_experiment.self_s": run_self,
        "experiment.bytes_written": size,
        "experiment.files_written": files,
        "trace.wall_ratio": traced_wall / untraced_wall,
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg) -> str:
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "annealbound")):
        _note(f"error: no annealbound sources at {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import annealbound.experiment as experiment

    if not os.path.abspath(experiment.__file__).startswith(SRC + os.sep):
        _note(f"error: imported annealbound from {experiment.__file__}, not {SRC}")
        return 2
    from workloads import REFERENCE_DELTA, WORKLOADS

    config = experiment.ExperimentConfig(raw=WORKLOADS[args.workload](args.seed))
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    from tracer import Tracer

    def timed(out_dir: str, tracer=None) -> float:
        started = time.perf_counter()
        if tracer is None:
            experiment.run_experiment(config, out_dir, jobs=1)
        else:
            with tracer:
                experiment.run_experiment(config, out_dir, jobs=1)
        return time.perf_counter() - started

    # Closed loop: one caller, sweep points back to back, no process pool.
    walls, traced = [], []
    out_dirs = []
    started = time.perf_counter()
    while True:
        out_dir = os.path.join(args.out, f"rep{len(out_dirs)}")
        out_dirs.append(out_dir)
        walls.append(timed(out_dir))
        if args.trace:
            out_dir = os.path.join(args.out, f"rep{len(out_dirs)}")
            out_dirs.append(out_dir)
            tracer = Tracer()
            traced.append((timed(out_dir, tracer), tracer, out_dir))
        elapsed = time.perf_counter() - started
        if len(out_dirs) >= 2 and (
            elapsed >= args.seconds or elapsed * (1 + 1 / len(walls)) > MEASURE_CAP_S
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failures, runs = check_repeats(out_dirs)
    excitation = check_excitation(out_dirs[0], runs, REFERENCE_DELTA)
    for point in excitation:
        if not point["rel_err"] <= point["tolerance"]:
            # The excitation is byte-identical across repeats, so a wrong
            # one fails that point in every repeat.
            for rep in range(len(out_dirs)):
                failures.setdefault((rep, point["run_hash"]), []).append(
                    f"excitation {point['program']:.6e} is {point['rel_err']:.3f} from "
                    f"reference {point['reference']:.6e} (tolerance {point['tolerance']:.3f})"
                )

    result = {
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"repeat {rep} point {h[:12]}: {'; '.join(r)}" for (rep, h), r in sorted(failures.items())],
        "excitation": excitation,
        "env": environment(),
    }
    if args.trace:
        per_repeat = [
            layer_metrics(tracer, wall, walls[i], out_dir)
            for i, (wall, tracer, out_dir) in enumerate(traced)
        ]
        result["layers"] = {k: statistics.median(m[k] for m in per_repeat) for k in per_repeat[0]}
        result["trace_table"] = traced[0][1].table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
