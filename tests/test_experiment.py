"""Config validation, random instances, and the batch run pipeline."""

import csv
import json
import os

import numpy as np
import pytest

import annealbound.bound as bound
import annealbound.dynamics as dynamics
import annealbound.experiment as experiment
import annealbound.spectrum as spectrum
from annealbound import (
    ConfigError,
    ExperimentConfig,
    IsingProblem,
    Schedule,
    gap_profile,
    build_diagonal,
    generate_random_problem,
    run_experiment,
)
from annealbound.experiment import validate_config


def _base_config(**overrides):
    cfg = {
        "problem": {"inline": {"n_spins": 1, "terms": [{"sites": [0], "j": 1.0}]}},
        "schedule": {
            "delta": 1e-2,
            "c": 2.0,
            "n_spins": 1,
            "g": {"kind": "constant", "g0": 0.25},
        },
        "t_max_k": 5.0,
    }
    cfg.update(overrides)
    return cfg


# ------------------------------------------------------------ random problems


def test_random_problem_is_deterministic():
    a = generate_random_problem(seed=42, n_spins=3)
    b = generate_random_problem(seed=42, n_spins=3)
    assert a == b
    c = generate_random_problem(seed=43, n_spins=3)
    assert a != c


def test_random_problem_term_structure():
    prob = generate_random_problem(seed=0, n_spins=4, k_max=2)
    supports = [sites for sites, _ in prob.terms]
    assert [s for s in supports if len(s) == 1] == [(0,), (1,), (2,), (3,)]
    assert len([s for s in supports if len(s) == 2]) == 6  # all pairs
    for _, j in prob.terms:
        assert abs(j) <= 1.0


def test_random_problem_single_site_case():
    prob = generate_random_problem(seed=5, n_spins=1, k_max=1)
    assert len(prob.terms) == 1
    assert prob.terms[0][0] == (0,)


def test_random_problem_screens_degeneracy():
    for seed in range(60):
        prob = generate_random_problem(seed=seed, n_spins=4)
        energies = np.sort(build_diagonal(prob).energies)
        assert energies[1] - energies[0] >= 1e-6


def test_random_problem_coupling_ranges():
    prob = generate_random_problem(
        seed=1, n_spins=3, field_scale=0.1, coupling_scale=2.0
    )
    for sites, j in prob.terms:
        if len(sites) == 1:
            assert abs(j) <= 0.1
        else:
            assert abs(j) <= 2.0


# --------------------------------------------------------------- config files


def test_validate_config_accepts_base():
    validate_config(_base_config())


def test_validate_config_reports_json_pointer():
    cfg = _base_config()
    cfg["schedule"]["delta"] = -1.0
    with pytest.raises(ConfigError, match=r"/schedule/delta"):
        validate_config(cfg)
    cfg = _base_config()
    cfg["gap_mode"] = "exotic"
    with pytest.raises(ConfigError, match=r"/gap_mode"):
        validate_config(cfg)
    cfg = _base_config()
    cfg["problem"] = {}
    with pytest.raises(ConfigError, match=r"/problem"):
        validate_config(cfg)
    cfg = _base_config()
    cfg["problem"] = {
        "inline": {"n_spins": 1, "terms": []},
        "random": {"seed": 0, "n_spins": 1},
    }
    with pytest.raises(ConfigError, match=r"/problem"):
        validate_config(cfg)


def test_config_rejects_unknown_top_level_key():
    cfg = _base_config()
    cfg["mystery"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_expand_resolves_problem_kinds(tmp_path):
    prob = generate_random_problem(seed=3, n_spins=2)
    prob_path = tmp_path / "prob.json"
    prob_path.write_text(json.dumps(prob.to_json()))
    cfg = _base_config(
        problem={"file": "prob.json"},
        schedule={
            "delta": 1e-2,
            "c": 2.0,
            "n_spins": 2,
            "g": {"kind": "constant", "g0": 0.125},
        },
    )
    config = ExperimentConfig(raw=cfg, base_dir=str(tmp_path))
    specs = config.expand(str(tmp_path / "out"))
    assert len(specs) == 1
    assert IsingProblem.from_json(specs[0].problem) == prob


def test_expand_sweep_product_and_overrides(tmp_path):
    cfg = _base_config(
        problem={"random": {"seed": 7, "n_spins": 2}},
        schedule={
            "delta": 1e-2,
            "c": 2.0,
            "n_spins": 2,
            "g": {"kind": "constant", "g0": 0.125},
        },
        sweep={"delta": [1e-1, 1e-2], "n_spins": [2, 3]},
    )
    config = ExperimentConfig(raw=cfg)
    specs = config.expand(str(tmp_path))
    assert len(specs) == 4
    labels = [(s.labels["delta"], s.labels["n_spins"]) for s in specs]
    assert labels == [(1e-1, 2), (1e-1, 3), (1e-2, 2), (1e-2, 3)]
    for s in specs:
        assert s.schedule["delta"] == s.labels["delta"]
        assert s.schedule["n_spins"] == s.labels["n_spins"]
        assert s.t_max == pytest.approx(5.0 / s.labels["delta"])
    # distinct inputs hash to distinct run directories
    assert len({s.run_hash for s in specs}) == 4


def test_expand_rejects_size_sweep_on_fixed_problem(tmp_path):
    cfg = _base_config(sweep={"n_spins": [1, 2]})
    config = ExperimentConfig(raw=cfg)
    with pytest.raises(ConfigError, match="random"):
        config.expand(str(tmp_path))


def test_expand_rejects_tails_with_delta_zero(tmp_path):
    cfg = _base_config()
    cfg["schedule"]["delta"] = 0.0
    cfg["integrator"] = {"max_time": 100.0}
    config = ExperimentConfig(raw=cfg)
    with pytest.raises(ConfigError, match="tails"):
        config.expand(str(tmp_path))
    cfg["tails"] = False
    specs = ExperimentConfig(raw=cfg).expand(str(tmp_path))
    assert specs[0].t_max == 100.0


def test_expand_requires_horizon_when_delta_zero(tmp_path):
    cfg = _base_config(tails=False)
    cfg["schedule"]["delta"] = 0.0
    config = ExperimentConfig(raw=cfg)
    with pytest.raises(ConfigError, match="max_time"):
        config.expand(str(tmp_path))


# ------------------------------------------------------------------ pipelines


EXPECTED_FILES = (
    "problem.json",
    "schedule.json",
    "certificate.json",
    "trajectory.csv",
    "trajectory.json",
    "gap_profile.csv",
    "bound_report.json",
    "integrand_samples.csv",
    "verdict.json",
)


def test_run_experiment_end_to_end(tmp_path):
    cfg = _base_config()
    manifest = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "out"))
    assert manifest.all_ok
    assert len(manifest.runs) == 1
    run = manifest.runs[0]
    assert run["ok"]
    run_dir = os.path.join(manifest.out_dir, run["dir"])
    for name in EXPECTED_FILES:
        assert os.path.exists(os.path.join(run_dir, name)), name
    verdict = json.load(open(os.path.join(run_dir, "verdict.json")))
    assert verdict["satisfied"]
    report = json.load(open(os.path.join(run_dir, "bound_report.json")))
    assert report["certified"]
    assert report["total"] >= verdict["final_excitation"]
    assert os.path.exists(tmp_path / "out" / "manifest.json")
    assert os.path.exists(tmp_path / "out" / "OUTPUT_README.md")


def test_run_experiment_reruns_byte_identical(tmp_path):
    cfg = _base_config()
    m1 = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "a"))
    m2 = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "b"))
    assert m1.runs[0]["dir"] == m2.runs[0]["dir"]
    d1 = os.path.join(m1.out_dir, m1.runs[0]["dir"])
    d2 = os.path.join(m2.out_dir, m2.runs[0]["dir"])
    for name in EXPECTED_FILES:
        with open(os.path.join(d1, name), "rb") as fh:
            blob1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            blob2 = fh.read()
        assert blob1 == blob2, name


def test_run_experiment_isolates_failing_run(tmp_path):
    # (3N-2) * g0 >= 1 fails certification, so requesting tails errors out;
    # the manifest must record the failure instead of crashing the sweep.
    cfg = _base_config(
        problem={"random": {"seed": 7, "n_spins": 2}},
        schedule={
            "delta": 1e-2,
            "c": 2.0,
            "n_spins": 2,
            "g": {"kind": "constant", "g0": 0.125},
        },
        sweep={"g0": [0.125, 0.3]},
    )
    manifest = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "out"))
    assert not manifest.all_ok
    by_g0 = {r["labels"]["g0"]: r for r in manifest.runs}
    assert by_g0[0.125]["ok"]
    assert not by_g0[0.3]["ok"]
    assert "certif" in by_g0[0.3]["error"]


def test_run_experiment_stationary_run(tmp_path):
    cfg = _base_config(tails=False, gap_mode="bounded")
    cfg["schedule"]["delta"] = 0.0
    cfg["integrator"] = {"max_time": 100.0}
    manifest = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "out"))
    assert manifest.all_ok
    run_dir = os.path.join(manifest.out_dir, manifest.runs[0]["dir"])
    assert not os.path.exists(os.path.join(run_dir, "certificate.json"))
    verdict = json.load(open(os.path.join(run_dir, "verdict.json")))
    assert verdict["satisfied"]


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = _base_config(
        problem={"random": {"seed": 7, "n_spins": 2}},
        schedule={
            "delta": 1e-1,
            "c": 2.0,
            "n_spins": 2,
            "g": {"kind": "constant", "g0": 0.125},
        },
        sweep={"delta": [1e-1, 5e-2]},
    )
    m1 = run_experiment(ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "serial"))
    m2 = run_experiment(
        ExperimentConfig(raw=cfg), out_dir=str(tmp_path / "parallel"), jobs=2
    )
    assert m1.all_ok and m2.all_ok
    for r1, r2 in zip(m1.runs, m2.runs):
        assert r1["dir"] == r2["dir"]
        v1 = json.load(open(os.path.join(m1.out_dir, r1["dir"], "verdict.json")))
        v2 = json.load(open(os.path.join(m2.out_dir, r2["dir"], "verdict.json")))
        assert v1 == v2


def _measured_config():
    return _base_config(
        problem={"random": {"seed": 7, "n_spins": 3}},
        schedule={
            "delta": 1e-1,
            "c": 2.0,
            "n_spins": 3,
            "g": {"kind": "constant", "g0": 0.125},
        },
        gap_mode="measured",
    )


def test_gap_profile_csv_holds_the_gap_curves_samples(tmp_path):
    manifest = run_experiment(ExperimentConfig(raw=_measured_config()), out_dir=str(tmp_path))
    assert manifest.all_ok
    run_dir = os.path.join(manifest.out_dir, manifest.runs[0]["dir"])
    with open(os.path.join(run_dir, "gap_profile.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "gamma", "eps0", "eps1", "gap"]
    table = np.array(rows[1:], dtype=float)
    problem = IsingProblem.from_json(json.load(open(os.path.join(run_dir, "problem.json"))))
    schedule = Schedule.from_json(json.load(open(os.path.join(run_dir, "schedule.json"))))
    snaps = gap_profile(problem, schedule, table[:, 0])
    direct = np.array([[s.t, s.gamma_value, s.eps0, s.eps1, s.gap] for s in snaps])
    assert np.allclose(table, direct, rtol=0.0, atol=1e-12)


def test_measured_run_solves_each_gamma_once(tmp_path, monkeypatch):
    gammas, curve_gammas, curves, grid_sizes, trajectories = [], [], [], [], []
    solve = spectrum.diagonalize
    build_curve = experiment.build_gap_curve
    scan_grid = bound.instance_gap_constant
    run_evolve = experiment.evolve

    def counting_diagonalize(diag, gamma_value, *args, **kwargs):
        gammas.append(float(gamma_value))
        return solve(diag, gamma_value, *args, **kwargs)

    def keep_curve(*args, **kwargs):
        first = len(gammas)
        curves.append(build_curve(*args, **kwargs))
        curve_gammas.extend(gammas[first:])
        return curves[-1]

    def count_grid(problem, grid):
        grid_sizes.append(len(grid))
        return scan_grid(problem, grid)

    def keep_trajectory(*args, **kwargs):
        trajectories.append(run_evolve(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(spectrum, "diagonalize", counting_diagonalize)
    monkeypatch.setattr(dynamics, "diagonalize", counting_diagonalize)
    monkeypatch.setattr(experiment, "build_gap_curve", keep_curve)
    monkeypatch.setattr(bound, "instance_gap_constant", count_grid)
    monkeypatch.setattr(experiment, "evolve", keep_trajectory)
    manifest = run_experiment(ExperimentConfig(raw=_measured_config()), out_dir=str(tmp_path))
    assert manifest.all_ok
    assert len(curves) == 1 and grid_sizes and len(trajectories) == 1
    # the initial state, then one solve per trajectory row
    assert len(gammas) == (
        curves[0].n_evaluations + sum(grid_sizes) + 1 + trajectories[0].times.size
    )
    # no gap-curve node is solved twice (the bound's Gamma grid may share
    # its top end, Gamma(0), with the curve's first node)
    assert len(curve_gammas) == curves[0].n_evaluations == len(set(curve_gammas))
