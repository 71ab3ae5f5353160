"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import annealbound.experiment as experiment  # noqa: E402
from reference import reference_excitation  # noqa: E402
from tracer import TARGETS, Tracer, _owner  # noqa: E402
from worker import check_repeats, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {
    "problem": {"random": {"seed": 3, "n_spins": 2}},
    "schedule": {"delta": 0.1, "c": 2.0, "n_spins": 2, "g": {"kind": "constant", "g0": 0.125}},
    "gap_mode": "measured",
    "tails": True,
    "t_max_k": 10.0,
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bound_attrs():
    return [_owner(module, path) for module, path, _, _ in TARGETS]


def test_tracer_restores_every_wrapped_function():
    originals = [owner.__dict__[attr] for owner, attr in _bound_attrs()]
    with pytest.raises(RuntimeError):
        with Tracer():
            for (owner, attr), original in zip(_bound_attrs(), originals):
                assert owner.__dict__[attr] is not original
            raise RuntimeError("leave the block by an exception")
    for (owner, attr), original in zip(_bound_attrs(), originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_metric_names_match_pattern():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_traced_run_yields_exactly_the_per_layer_metrics(tmp_path):
    config = experiment.ExperimentConfig(raw=TINY)
    tracer = Tracer()
    with tracer:
        experiment.run_experiment(config, str(tmp_path), jobs=1)
    metrics = layer_metrics(tracer, 1.5, 1.0, str(tmp_path))
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["dynamics.evolve.calls"] == 1
    assert metrics["dynamics.steps"] == 200
    # initial state plus one ground state per record point
    assert metrics["dynamics.record_diagonalizations"] == 202
    assert 0 < metrics["spectrum.diagonalize.distinct_frac"] < 1
    assert metrics["trace.wall_ratio"] == pytest.approx(1.5)


def test_repeat_check_flags_changed_data_files(tmp_path):
    config = experiment.ExperimentConfig(raw=TINY)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        experiment.run_experiment(config, d, jobs=1)
    attempted, failures, _ = check_repeats(dirs)
    assert (attempted, failures) == (2, {})

    run_dir = experiment.ExperimentConfig(raw=TINY).expand(dirs[1])[0].out_dir
    with open(os.path.join(run_dir, "verdict.json"), "a") as fh:
        fh.write(" ")
    attempted, failures, _ = check_repeats(dirs)
    assert attempted == 2
    assert [reasons for (rep, _), reasons in failures.items() if rep == 1] == [
        ["data files differ from the first repeat"]
    ]


def test_reference_reproduces_sudden_quench_projection():
    # Acceptance criterion 06: after an instant quench the overlap with the
    # final ground state is the projection (2 + sqrt 2)/4 of the initial one.
    problem = {"n_spins": 1, "terms": [{"sites": [0], "j": 1.0}]}
    schedule = {"delta": 1e12, "c": 1.0, "n_spins": 1, "g": {"kind": "constant", "g0": 0.5}}
    ref = reference_excitation(problem, schedule, 1.0)
    assert abs((1.0 - ref["value"] ** 2) - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-6
