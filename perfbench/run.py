"""annealbound benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 40 --trace 0

Run from the repository root. Set-up is measured by starting the worker
process several times, before and after the measuring one, up to the point
where it would call ``run_experiment``. The measuring worker runs the workload
with the BLAS thread count pinned in its environment (see worker.py).
Human-readable lines come first; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.

Exits 2 without a result when the ``annealbound`` sources are missing, and 1
when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up is sampled this many times before the measuring worker and as many
# after it (the worker's own start is one of the first), so the median spans
# the whole run rather than one moment of the host's load.
SETUP_PROBES = 4
# Whole-run budget: a run must end within 180 s.
TIMEOUT_S = 170.0


def _worker_env() -> dict:
    # One BLAS thread: never more than nproc, and no competition for cores.
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _ready_time(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("READY "):
            return float(line.split()[1])
    raise RuntimeError("worker printed no READY line")


def _setup_seconds(cmd: list[str], env: dict, deadline: float) -> float:
    """Interpreter start, import and config build of one fresh process."""
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--setup-only"], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - started), check=True,
    )
    return _ready_time(proc.stdout) - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="annealbound benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "annealbound")):
        print(f"error: no annealbound sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIMEOUT_S
    env = _worker_env()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    out_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = [_setup_seconds(cmd, env, deadline) for _ in range(SETUP_PROBES - 1)]
        started = time.monotonic()
        proc = subprocess.run(
            cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        setup.append(_ready_time(proc.stdout) - started)
        setup += [_setup_seconds(cmd, env, deadline) for _ in range(SETUP_PROBES)]
        result = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.SubprocessError, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    walls = result["walls"]
    if args.trace:
        values = result["layers"]
        trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"spans": result["trace_table"], "metrics": values}, fh, indent=1)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"repeats {len(walls)} walls_s " + " ".join(f"{w:.3f}" for w in walls))
    print("setup_samples_s " + " ".join(f"{s:.3f}" for s in setup))
    for point in result["excitation"]:
        print(
            f"excitation {point['labels']} program {point['program']:.6e} "
            f"reference {point['reference']:.6e} rel_err {point['rel_err']:.4f} "
            f"step_err {point['step_err']:.4f} "
            f"tolerance {point['tolerance']:.4f} "
            f"({point['halvings']} halvings, {point['seconds']:.2f} s)"
        )
    if result["excitation"]:
        print(f"excitation_rel_err {max(p['rel_err'] for p in result['excitation']):.6f}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6f}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
