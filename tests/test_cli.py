"""Command-line entry points, driven through main() with explicit argv."""

import json

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


@pytest.mark.parametrize(
    "verb,artifact,keys",
    [
        ("evolve", "trajectory.json", ("integrator", "max_time")),
        ("bound", "bound_report.json", ("t_max",)),
    ],
    ids=["evolve", "bound"],
)
def test_config_t_max_k_sets_the_horizon_unless_flag_given(
    tmp_path, problem_json, verb, artifact, keys
):
    # As on run: a config t_max_k sets the horizon K/delta, --t-max-k overrides it.
    cfg = _write(
        tmp_path,
        f"{verb}.json",
        {"problem": problem_json, "schedule": _schedule_json(delta=0.1), "t_max_k": 3.0},
    )

    def horizon(out_dir, *flags):
        assert main([verb, "--config", cfg, "--out", str(out_dir), *flags]) == 0
        value = json.loads((out_dir / artifact).read_text())
        for key in keys:
            value = value[key]
        return value

    assert horizon(tmp_path / "config") == pytest.approx(30.0)
    assert horizon(tmp_path / "flag", "--t-max-k", "2") == pytest.approx(20.0)


def _run_config(problem, **extra):
    return {"problem": problem, "schedule": _schedule_json(delta=0.1), **extra}


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


@pytest.mark.parametrize(
    "config,flags,needle",
    [
        # a top-level seed that nothing reads
        (_run_config({"random": {"seed": 7, "n_spins": 2}}, seed=99), [], "'seed'"),
        # a schedule key that nothing reads
        (
            {
                "problem": {"random": {"seed": 7, "n_spins": 2}},
                "schedule": {**_schedule_json(delta=0.1), "t_max_k": 3.0},
            },
            [],
            "'t_max_k'",
        ),
        # --seed on a problem that has no seed
        (
            _run_config({"inline": {"n_spins": 1, "terms": [{"sites": [0], "j": 1.0}]}}),
            ["--seed", "5"],
            "'random'",
        ),
        # a flag value is validated like the config value it edits
        (_run_config({"random": {"seed": 7, "n_spins": 2}}), ["--t-max-k", "-1"], "/t_max_k"),
        (_run_config({"random": {"seed": 7, "n_spins": 2}}), ["--t-max-k", "0"], "/t_max_k"),
    ],
    ids=["top-level-seed", "schedule-t_max_k", "seed-flag-on-inline", "t-max-k-negative", "t-max-k-zero"],
)
def test_run_rejects_settings_it_would_ignore_or_misread(
    tmp_path, capsys, config, flags, needle
):
    cfg = _write(tmp_path, "run.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_run_seed_flag_edits_the_random_problem(tmp_path):
    # --seed is problem.random.seed: it changes the problem, the run hash
    # and the manifest's config hash, exactly as editing the config would.
    cfg = _write(tmp_path, "run.json", _run_config({"random": {"seed": 7, "n_spins": 2}}))
    edited = _write(tmp_path, "edited.json", _run_config({"random": {"seed": 8, "n_spins": 2}}))
    runs = {}
    for name, argv in {
        "config": ["--config", cfg],
        "flag": ["--config", cfg, "--seed", "8"],
        "edited": ["--config", edited],
    }.items():
        assert main(["run", *argv, "--out", str(tmp_path / name)]) == 0
        manifest = _manifest(tmp_path / name)
        run = manifest["runs"][0]
        problem = (tmp_path / name / run["dir"] / "problem.json").read_text()
        runs[name] = (problem, run["run_hash"], manifest["config_hash"])
    for a, b in zip(runs["config"], runs["flag"]):
        assert a != b
    assert runs["flag"] == runs["edited"]


def test_run_hash_covers_the_certify_block(tmp_path):
    # l enters the certified envelope constants and so the tails: two
    # configs that differ only in certify.l are two runs, not one.
    schedule = {
        **_schedule_json(delta=0.1),
        "g": {"kind": "power_decay", "g0": 0.1, "g1": 0.05, "l_exp": 0.7},
    }
    runs = {}
    for l in (0.3, 0.6):
        config = {
            "problem": {"random": {"seed": 7, "n_spins": 2}},
            "schedule": schedule,
            "certify": {"l": l},
        }
        out_dir = tmp_path / str(l)
        assert main(["run", "--config", _write(tmp_path, f"{l}.json", config), "--out", str(out_dir)]) == 0
        run = _manifest(out_dir)["runs"][0]
        runs[l] = (run["dir"], run["bound_total"])
    assert runs[0.3][0] != runs[0.6][0]
    assert runs[0.3][1] != runs[0.6][1]


def test_fit_gap_k_max_defaults_to_the_library_rule(tmp_path, capsys):
    # With no k_max in the config, each size gets the library's default
    # min(N, 2), which is 1 at N = 1.
    cfg = _write(
        tmp_path,
        "fit.json",
        {
            "ensemble": {"seeds": [0], "sizes": [1, 2, 3]},
            "gamma_grid": {"lo": 0.05, "hi": 2.0, "points": 8},
        },
    )
    assert main(["fit-gap", "--config", cfg, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "gap_fit.json").read_text())
    assert sorted(fit["per_size_A"]) == ["1", "2", "3"]


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
    # run loads its config through ExperimentConfig.from_file
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err
    assert len(err.strip().splitlines()) == 1


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
        # A top-level key the verb does not read is an error, not ignored.
        ("certify", {"schedule": _schedule_json(n=1), "horizn": 10.0}, "'horizn'"),
        ("certify", {**_schedule_json(n=1), "horizn": 10.0}, "'horizn'"),
        ("spectrum", {"problem": _ONE_SPIN, "schedule": _schedule_json(n=1), "tgrid": {}}, "'tgrid'"),
        (
            "evolve",
            {"problem": _ONE_SPIN, "schedule": _schedule_json(n=1), "integrater": {}},
            "'integrater'",
        ),
        (
            "bound",
            {"problem": _ONE_SPIN, "schedule": _schedule_json(n=1), "gap_mod": "unit"},
            "'gap_mod'",
        ),
        ("fit-gap", {"problems": [_ONE_SPIN], "gamma_grids": {"points": 8}}, "'gamma_grids'"),
        ("reparam", {"s": {"kind": "tanh"}, "t_grid": {"hi": 5.0}, "tgrid": {}}, "'tgrid'"),
    ],
)
def test_malformed_config_names_the_key_and_exits_2(tmp_path, capsys, verb, config, key):
    cfg = _write(tmp_path, "cfg.json", config)
    assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert len(err.strip().splitlines()) == 1

