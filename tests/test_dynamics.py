"""Schrodinger propagation: unitarity, order, limits, bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

import annealbound.dynamics as dynamics
from annealbound import (
    ConstantG,
    DegenerateGroundStateError,
    IntegratorConfig,
    IsingProblem,
    Schedule,
    ValidationError,
    build_diagonal,
    diagonalize,
    evolve,
    excitation_norm,
    generate_random_problem,
    initial_state,
    trajectory_sidecar,
    trajectory_to_csv,
)
from annealbound.spectrum import dense_hamiltonian, transverse_field


def test_excitation_norm_limits(rng):
    diag = build_diagonal(generate_random_problem(seed=4, n_spins=3))
    ground = diagonalize(diag, 0.7).ground_state.astype(complex)
    assert excitation_norm(ground, ground) == pytest.approx(0.0, abs=1e-12)
    # any state orthogonal to the ground state
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    perp = raw - np.vdot(ground, raw) * ground
    perp /= np.linalg.norm(perp)
    assert excitation_norm(perp, ground) == pytest.approx(1.0, abs=1e-12)
    # overlap^2 = 3/4 puts the excitation weight at exactly 1/2
    mix = math.sqrt(0.75) * ground + 0.5 * perp
    assert excitation_norm(mix, ground) == pytest.approx(0.5, abs=1e-12)


def test_initial_state_single_spin_overlap():
    prob = IsingProblem(1, [((0,), 1.0)])
    sched = Schedule(delta=1.0, c=1.0, g=ConstantG(0.5), n_spins=1)
    psi = initial_state(prob, sched)
    # Gamma(0) = 1: ground of -(sigma_z + sigma_x), |<0|psi>|^2 = (2+sqrt(2))/4
    assert abs(psi[0]) ** 2 == pytest.approx(0.8535533905932737, abs=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_large_gamma_is_uniform():
    prob = generate_random_problem(seed=6, n_spins=3)
    c = (1000.0 * prob.total_j) ** -1.0
    sched = Schedule(delta=0.0, c=c, g=ConstantG(1.0), n_spins=3)
    assert sched.gamma(0.0) == pytest.approx(1000.0 * prob.total_j, rel=1e-12)
    psi = initial_state(prob, sched)
    assert np.allclose(np.abs(psi), 2.0 ** -1.5, atol=1e-3)


def test_initial_state_rejects_degenerate_problem():
    prob = IsingProblem(2, [((0, 1), 1.0)])
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=2)
    with pytest.raises(DegenerateGroundStateError):
        initial_state(prob, sched)


def test_integrator_config_validation():
    with pytest.raises(ValidationError):
        IntegratorConfig(max_time=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(max_time=10.0, dt=-0.1)
    with pytest.raises(ValidationError):
        IntegratorConfig(max_time=10.0, record_stride=0)
    cfg = IntegratorConfig(max_time=10.0)
    assert cfg.dt is None and cfg.norm_tolerance == 1e-8


# ------------------------------------------------------------------ evolution


def test_stationary_schedule_stays_in_ground_state():
    prob = generate_random_problem(seed=8, n_spins=2)
    sched = Schedule(delta=0.0, c=1.0, g=ConstantG(0.25), n_spins=2)
    traj = evolve(prob, sched, IntegratorConfig(max_time=200.0))
    assert not traj.failed
    assert traj.excitation_norms.max() <= 1e-6
    assert abs(traj.norm_drift).max() <= 1e-10


def test_norm_preserved_on_generic_run():
    prob = generate_random_problem(seed=11, n_spins=3)
    sched = Schedule(delta=0.05, c=1.5, g=ConstantG(0.1), n_spins=3)
    traj = evolve(prob, sched, IntegratorConfig(max_time=100.0))
    assert not traj.failed
    assert abs(traj.norm_drift).max() <= 1e-10
    assert np.linalg.norm(traj.final_state) == pytest.approx(1.0, abs=1e-10)


def test_midpoint_stepping_is_second_order():
    prob = generate_random_problem(seed=11, n_spins=2)
    sched = Schedule(delta=0.05, c=1.5, g=ConstantG(0.2), n_spins=2)
    T = 50.0
    ref = evolve(prob, sched, IntegratorConfig(max_time=T, dt=1 / 64)).final_state
    errs = []
    for dt in (1 / 4, 1 / 8, 1 / 16):
        fin = evolve(prob, sched, IntegratorConfig(max_time=T, dt=dt)).final_state
        errs.append(np.linalg.norm(fin - ref))
    # halving dt cuts the error by ~4 (measured 4.05, 4.20 on this setup)
    assert 3.0 <= errs[0] / errs[1] <= 5.5
    assert 3.0 <= errs[1] / errs[2] <= 5.5


def test_sudden_quench_overlap():
    # delta so large that Gamma collapses within the first step: the state has
    # no time to move, so the final ground-state overlap is the instantaneous
    # projection |<z=0|psi(0)>|^2 = (2+sqrt(2))/4.
    prob = IsingProblem(1, [((0,), 1.0)])
    sched = Schedule(delta=1e12, c=1.0, g=ConstantG(0.5), n_spins=1)
    traj = evolve(prob, sched, IntegratorConfig(max_time=1.0, dt=0.01))
    assert traj.ground_overlap_sq[-1] == pytest.approx(0.8535533905932737, abs=1e-2)


def test_record_grid_and_stride():
    prob = generate_random_problem(seed=3, n_spins=2)
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=2)
    traj = evolve(prob, sched, IntegratorConfig(max_time=20.0, dt=0.1, record_stride=5))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(20.0, rel=1e-12)
    assert np.all(np.diff(traj.times) > 0)
    # 200 steps / stride 5 = 40 interior records + start + end
    assert 40 <= len(traj.times) <= 42
    assert traj.n_steps == 200
    assert np.allclose(traj.gammas, sched.gamma(traj.times), rtol=1e-12)


def test_overlap_against_fresh_diagonalization():
    prob = generate_random_problem(seed=5, n_spins=2)
    sched = Schedule(delta=0.02, c=1.5, g=ConstantG(0.15), n_spins=2)
    traj = evolve(prob, sched, IntegratorConfig(max_time=50.0))
    assert np.all(traj.ground_overlap_sq >= 0) and np.all(traj.ground_overlap_sq <= 1 + 1e-12)
    assert np.allclose(
        traj.excitation_norms,
        np.sqrt(np.maximum(0.0, 1.0 - traj.ground_overlap_sq)),
        atol=1e-12,
    )
    assert traj.final_excitation == pytest.approx(traj.excitation_norms[-1], abs=1e-15)


def test_norm_tolerance_breach_is_flagged_not_hidden():
    prob = generate_random_problem(seed=3, n_spins=2)
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=2)
    traj = evolve(
        prob, sched, IntegratorConfig(max_time=20.0, dt=0.1, norm_tolerance=1e-17)
    )
    assert traj.failed
    assert traj.failure_time is not None
    assert "norm" in traj.failure_reason
    # the trajectory is still returned in full for post-mortem
    assert traj.times[-1] == pytest.approx(20.0, rel=1e-12)


def test_trajectory_csv_and_sidecar(tmp_path):
    prob = generate_random_problem(seed=3, n_spins=2)
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=2)
    cfg = IntegratorConfig(max_time=10.0, dt=0.1)
    traj = evolve(prob, sched, cfg)
    out = tmp_path / "traj.csv"
    trajectory_to_csv(traj, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,gamma,overlap_sq,excitation_norm,norm_drift"
    assert len(lines) == len(traj.times) + 1
    side = trajectory_sidecar(traj, prob, sched, cfg)
    assert side["provenance"] == traj.provenance
    assert side["n_steps"] == traj.n_steps
    assert side["problem"] == prob.to_json()
    assert side["propagator"] == traj.propagator == "dense"
    assert side["h_applies"] == traj.h_applies == 0


@pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
def test_dense_and_chebyshev_paths_agree(monkeypatch, n_spins):
    prob = generate_random_problem(seed=11, n_spins=n_spins)
    sched = Schedule(delta=0.05, c=1.5, g=ConstantG(0.1), n_spins=n_spins)
    cfg = IntegratorConfig(max_time=100.0)
    runs = {}
    for crossover, name in ((n_spins, "dense"), (n_spins - 1, "chebyshev")):
        monkeypatch.setattr(dynamics, "DENSE_MAX_SPINS", crossover)
        runs[name] = evolve(prob, sched, cfg)
        assert runs[name].propagator == name
    dense, cheb = runs["dense"], runs["chebyshev"]
    assert dense.n_steps == cheb.n_steps
    # one H apply per Chebyshev term beyond the zeroth, on every step
    assert dense.h_applies == 0
    assert cheb.h_applies > 0 and cheb.h_applies % cheb.n_steps == 0
    assert np.abs(dense.final_state - cheb.final_state).max() <= 1e-10
    assert np.abs(dense.excitation_norms - cheb.excitation_norms).max() <= 1e-10
    assert np.abs(dense.ground_overlap_sq - cheb.ground_overlap_sq).max() <= 1e-10
    assert dense.norm_drift.max() <= 1e-12 and cheb.norm_drift.max() <= 1e-12


def test_excitation_norm_keeps_digits_near_the_ground_state():
    # Ground vectors off in one last bit are in the ground space to rounding.
    # Whether sqrt(1 - |<g|psi_hat>|^2) shows it depends on the solver's last
    # bits, so the naive form only has to read > 1e-8 somewhere in the loop.
    naive, exact = [], []
    for n in range(3, 6):
        for seed in range(1, 8):
            prob = generate_random_problem(seed=seed, n_spins=n)
            sched = Schedule(delta=1e-4, c=2.0, g=ConstantG(0.125), n_spins=n)
            ground = initial_state(prob, sched)
            for k in range(ground.size):
                for toward in (0.0, 2.0):
                    psi = ground.copy()
                    psi[k] = np.nextafter(psi[k].real, toward)
                    ov = abs(np.vdot(ground, psi / np.linalg.norm(psi))) ** 2
                    naive.append(math.sqrt(max(0.0, 1.0 - ov)))
                    exact.append(excitation_norm(psi, ground))
    assert max(naive) > 1e-8
    assert max(exact) <= 1e-15


@pytest.mark.parametrize("n_spins", [6, 7, 8])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_chebyshev_record_overlaps_match_dense_ground_states(monkeypatch, n_spins, seed):
    prob = generate_random_problem(seed=seed, n_spins=n_spins)
    sched = Schedule(delta=0.1, c=2.0, g=ConstantG(1.0 / 36.0), n_spins=n_spins)
    states = []
    chebyshev_steps = dynamics._chebyshev_steps

    def keep_states(*args):
        for psi in chebyshev_steps(*args):
            states.append(psi)
            yield psi

    monkeypatch.setattr(dynamics, "_chebyshev_steps", keep_states)
    # N = 6 and 7 run dense by default; keep the Chebyshev path covered there.
    monkeypatch.setattr(dynamics, "DENSE_MAX_SPINS", 5)
    traj = evolve(prob, sched, IntegratorConfig(max_time=20.0, dt=0.5, record_stride=4))
    assert traj.propagator == "chebyshev"
    diag = build_diagonal(prob)
    psi0 = initial_state(prob, sched)
    for t, gam, ov in zip(traj.times, traj.gammas, traj.ground_overlap_sq):
        psi = psi0 if t == 0.0 else states[round(t / traj.dt) - 1]
        ground = diagonalize(diag, gam).ground_state
        assert abs(np.vdot(ground, psi / np.linalg.norm(psi))) ** 2 == pytest.approx(ov, abs=1e-12)


def test_paths_agree_on_a_tiny_excitation(monkeypatch):
    # Criterion 05's delta = 1e-4 instance, cut at T = 2e3 so the Chebyshev
    # run stays short. There 1 - |<g|psi>|^2 is ~1e-13, and the two paths'
    # rounding-level state differences moved sqrt(1 - overlap) by 3e-3 relative.
    prob = generate_random_problem(seed=23, n_spins=2)
    sched = Schedule(delta=1e-4, c=2.0, g=ConstantG(0.125), n_spins=2)
    finals = []
    for crossover in (2, 1):
        monkeypatch.setattr(dynamics, "DENSE_MAX_SPINS", crossover)
        finals.append(evolve(prob, sched, IntegratorConfig(max_time=2e3)).final_excitation)
    assert finals[0] < 1e-6
    assert finals[1] == pytest.approx(finals[0], rel=1e-6, abs=0.0)


# ------------------------------------------------- interpolated dense propagator


def _exact_step(h: np.ndarray, dt: float) -> np.ndarray:
    w, v = dynamics._eigh_all(h.copy())
    return (v * np.exp(-1j * dt * w)) @ v.T


@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    dt=st.floats(0.01, 0.5),
    lo=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 1.0),
    picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_interpolated_propagator_matches_exact_exponential(n, seed, dt, lo, frac, picks):
    # Widest Gamma-interval a full block may span: the k = DENSE_BLOCK - 1 node
    # interpolant still meets 2 (dt n w / 4)^k / k! <= INTERP_TOL there.
    cap = dynamics.DENSE_BLOCK
    z_max = math.exp((math.log(dynamics.INTERP_TOL / 2) + math.lgamma(cap)) / (cap - 1))
    width = 0.999 * frac * 4.0 * z_max / (dt * n)
    gammas = lo + width * np.linspace(0.0, 1.0, cap) ** 2
    [(part, k)] = dynamics._interpolation_blocks(gammas, dt * n)  # one block, k < cap
    diag = build_diagonal(generate_random_problem(seed=seed, n_spins=n))
    h0, driver = np.diag(diag.energies), transverse_field(n)
    props, weights = dynamics._interpolation(h0, driver, part, dt, k)
    assert props.shape == (k, 2**n, 2**n) and weights.shape == (cap, k)
    for s in np.rint(np.asarray(picks) * (cap - 1)).astype(int):
        interpolated = np.tensordot(weights[s], props, axes=1)
        exact = _exact_step(h0 - gammas[s] * driver, dt)
        assert np.abs(interpolated - exact).max() <= 1e-13


@pytest.mark.parametrize("n_spins", [2, 3, 4])
def test_dense_trajectory_matches_exact_per_step_reference(n_spins):
    prob = generate_random_problem(seed=7, n_spins=n_spins)
    sched = Schedule(delta=1e-2, c=2.0, g=ConstantG(0.0625), n_spins=n_spins)
    traj = evolve(prob, sched, IntegratorConfig(max_time=1e3))
    assert traj.propagator == "dense"
    diag = build_diagonal(prob)
    psi = initial_state(prob, sched)
    ref_excs = [excitation_norm(psi, diagonalize(diag, traj.gammas[0]).ground_state)]
    dt, record_steps = traj.dt, np.rint(traj.times / traj.dt).astype(int)
    for step in range(1, traj.n_steps + 1):
        h = dense_hamiltonian(diag, sched.gamma((step - 0.5) * dt))
        psi = expm(-1j * dt * h) @ psi
        if step in record_steps:
            ground = diagonalize(diag, sched.gamma(step * dt)).ground_state
            ref_excs.append(excitation_norm(psi, ground))
    assert np.abs(traj.excitation_norms - ref_excs).max() <= 1e-12
    assert np.abs(traj.final_state - psi).max() <= 1e-10


def test_dense_path_needs_few_eigendecompositions(monkeypatch):
    # 20,000 steps at N = 4: one eigendecomposition per step would make 20,000.
    calls = []
    eigh_all = dynamics._eigh_all

    def counted(h):
        calls.append(1)
        return eigh_all(h)

    monkeypatch.setattr(dynamics, "_eigh_all", counted)
    prob = generate_random_problem(seed=1, n_spins=4)
    sched = Schedule(delta=1e-3, c=2.0, g=ConstantG(0.0625), n_spins=4)
    traj = evolve(prob, sched, IntegratorConfig(max_time=1e4))
    assert traj.propagator == "dense" and traj.n_steps == 20_000
    assert len(calls) <= 2_000
