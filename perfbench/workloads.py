"""Workload configs, each built from the workload seed alone.

Every config sets ``t_max_k`` explicitly to the CLI default, so the amount of
work does not depend on how a ``--t-max-k`` override is resolved.
"""

from __future__ import annotations

T_MAX_K = 10.0


def _config(seed: int, n_spins: int, delta: float, g0: float, sweep: dict | None = None) -> dict:
    raw = {
        "problem": {"random": {"seed": seed, "n_spins": n_spins}},
        "schedule": {
            "delta": delta, "c": 2.0, "n_spins": n_spins,
            "g": {"kind": "constant", "g0": g0},
        },
        "gap_mode": "measured",
        "tails": True,
        "t_max_k": T_MAX_K,
    }
    if sweep:
        raw["sweep"] = sweep
    return raw


def sweep_small(seed: int) -> dict:
    # g0 = 1/16 keeps (3N - 2) g0 < 1, so the tails are certified for every N <= 4.
    return _config(seed, 2, 1e-2, 0.0625, {"n_spins": [2, 3, 4], "delta": [1e-2, 1e-3]})


def pipeline_dense(seed: int) -> dict:
    return _config(seed, 9, 0.1, 1.0 / 36.0)


WORKLOADS = {
    "sweep-small": sweep_small,
    "pipeline-dense": pipeline_dense,
}

# Sweep points whose final excitation is checked against the dense reference.
REFERENCE_DELTA = 1e-2
