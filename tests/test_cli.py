"""Command-line entry points, driven through main() with explicit argv."""

import json
import os

import pytest

from annealbound import generate_random_problem
from annealbound.cli import main


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _schedule_json(delta=1e-2, c=2.0, n=2, g0=0.125):
    return {
        "delta": delta,
        "c": c,
        "n_spins": n,
        "g": {"kind": "constant", "g0": g0},
    }


@pytest.fixture
def problem_json():
    return generate_random_problem(seed=7, n_spins=2).to_json()


def test_certify_pass_and_fail_exit_codes(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", {"schedule": _schedule_json()})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["passed"]

    bad = _write(tmp_path, "bad.json", {"schedule": _schedule_json(g0=0.25)})
    assert main(["certify", "--config", bad, "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_accepts_bare_schedule(tmp_path, capsys):
    cfg = _write(tmp_path, "bare.json", _schedule_json())
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_spectrum_writes_profile(tmp_path, capsys, problem_json):
    cfg = _write(
        tmp_path,
        "spec.json",
        {
            "problem": problem_json,
            "schedule": _schedule_json(),
            "t_grid": {"hi": 200.0, "points": 40},
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gap_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "t,gamma,eps0,eps1,gap"
    assert len(lines) == 41
    assert "min gap" in capsys.readouterr().out


def test_evolve_writes_trajectory(tmp_path, capsys, problem_json):
    cfg = _write(
        tmp_path,
        "evolve.json",
        {
            "problem": problem_json,
            "schedule": _schedule_json(delta=0.1),
            "integrator": {"dt": 0.05},
        },
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path), "--t-max-k", "2"]) == 0
    assert (tmp_path / "trajectory.csv").exists()
    side = json.loads((tmp_path / "trajectory.json").read_text())
    assert side["integrator"]["max_time"] == pytest.approx(20.0)
    assert "final excitation" in capsys.readouterr().out


def test_bound_gap_mode_flag_overrides_config(tmp_path, capsys, problem_json):
    cfg = _write(
        tmp_path,
        "bound.json",
        {"problem": problem_json, "schedule": _schedule_json(), "gap_mode": "measured"},
    )
    assert (
        main(["bound", "--config", cfg, "--out", str(tmp_path), "--gap-mode", "unit"])
        == 0
    )
    report = json.loads((tmp_path / "bound_report.json").read_text())
    assert report["gap_mode"] == "unit"
    assert (tmp_path / "integrand_samples.csv").exists()
    assert "bound[unit]" in capsys.readouterr().out


def test_run_full_pipeline(tmp_path, capsys, problem_json):
    cfg = _write(
        tmp_path,
        "run.json",
        {
            "problem": {"inline": problem_json},
            "schedule": _schedule_json(),
            "t_max_k": 5.0,
        },
    )
    out_dir = str(tmp_path / "runs")
    assert main(["run", "--config", cfg, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "all_ok=True" in out
    manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
    assert manifest["all_ok"] and manifest["n_runs"] == 1


def test_run_config_t_max_k_wins_unless_flag_given(tmp_path, problem_json):
    cfg = _write(
        tmp_path,
        "run.json",
        {
            "problem": {"inline": problem_json},
            "schedule": _schedule_json(delta=0.1),
            "t_max_k": 3.0,
        },
    )

    def max_time(out_dir, *flags):
        assert main(["run", "--config", cfg, "--out", str(out_dir), *flags]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        side = out_dir / manifest["runs"][0]["dir"] / "trajectory.json"
        return json.loads(side.read_text())["integrator"]["max_time"]

    assert max_time(tmp_path / "config") == pytest.approx(30.0)
    assert max_time(tmp_path / "flag", "--t-max-k", "2") == pytest.approx(20.0)


def test_fit_gap_from_ensemble(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "fit.json",
        {
            "ensemble": {"seeds": [0, 1], "sizes": [2, 3, 4]},
            "gamma_grid": {"lo": 0.05, "hi": 2.0, "points": 40},
        },
    )
    assert main(["fit-gap", "--config", cfg, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "gap_fit.json").read_text())
    assert not fit["underdetermined"]
    assert fit["b_fit"] >= 0
    assert "fit-gap" in capsys.readouterr().out


def test_reparam_writes_map(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "reparam.json",
        {"s": {"kind": "tanh"}, "t_grid": {"hi": 25.0, "points": 101}},
    )
    assert main(["reparam", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "reparam.csv").read_text().strip().splitlines()
    assert lines[0] == "t,s,t_tilde,gamma"
    assert len(lines) == 102
    out = capsys.readouterr().out
    # t_tilde(25) = 25 - log 2 = 24.3069 to printed precision
    assert "24.3069" in out


def test_config_error_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "broken.json", {"schedule": {"delta": "fast"}})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["certify", "--config", missing, "--out", str(tmp_path)]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verbs_reject_flags_they_do_not_read(tmp_path, capsys):
    # A flag a verb would ignore is an argparse error (exit 2), not a no-op.
    read = {
        "certify": set(),
        "spectrum": set(),
        "evolve": {"--t-max-k"},
        "bound": {"--gap-mode", "--t-max-k"},
        "run": {"--seed", "--jobs", "--gap-mode", "--t-max-k"},
        "fit-gap": {"--seed"},
        "reparam": set(),
    }
    values = {"--seed": "3", "--jobs": "4", "--gap-mode": "unit", "--t-max-k": "20"}
    cfg = _write(tmp_path, "cfg.json", {"schedule": _schedule_json()})
    for verb, flags in read.items():
        for flag in sorted(set(values) - flags):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--config", cfg, "--out", str(tmp_path), flag, values[flag]])
            assert exc.value.code == 2, (verb, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


_ONE_SPIN = {"n_spins": 1, "terms": [{"sites": [0], "j": 1.0}]}


@pytest.mark.parametrize(
    "verb,config,key",
    [
        ("evolve", {"schedule": _schedule_json(n=1)}, "'problem'"),
        ("reparam", {"t_grid": {"hi": 5.0}}, "'s'"),
        (
            "evolve",
            {"problem": _ONE_SPIN, "schedule": _schedule_json(n=1), "integrator": {"steps": 10}},
            "'steps'",
        ),
        ("fit-gap", {"ensemble": {"seeds": [0, 1]}}, "'sizes'"),
    ],
)
def test_malformed_config_names_the_key_and_exits_2(tmp_path, capsys, verb, config, key):
    cfg = _write(tmp_path, "cfg.json", config)
    assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert len(err.strip().splitlines()) == 1
