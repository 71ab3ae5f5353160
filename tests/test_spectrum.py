"""Spectra: diagonalization paths, gap curves, empirical gap-bound constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annealbound import spectrum
from annealbound import (
    ConstantG,
    DegenerateGroundStateError,
    GapAnomalyError,
    IsingProblem,
    Schedule,
    SizeCapError,
    ValidationError,
    build_diagonal,
    build_gap_curve,
    check_ising_nondegenerate,
    diagonalize,
    fit_gap_constants,
    gap_profile,
    generate_random_problem,
    instance_gap_constant,
    profile_to_csv,
)

from oracles import dense_hamiltonian, ground_state, lowest_eigs


def _dense_bits(problem, gamma):
    """Dense H via direct bit arithmetic; independent of the package kernels."""
    n = problem.n_spins
    dim = 1 << n
    h = np.zeros((dim, dim))
    z = np.arange(dim)
    for sites, coeff in problem.terms:
        signs = np.ones(dim)
        for i in sites:
            signs *= 1.0 - 2.0 * ((z >> i) & 1)
        h[z, z] -= coeff * signs
    for i in range(n):
        h[z, z ^ (1 << i)] -= gamma
    return h


# ----------------------------------------------------------------- eigenvalues


def test_single_spin_closed_form():
    diag = build_diagonal(IsingProblem(1, [((0,), 1.0)]))
    for gamma in np.linspace(0.0, 10.0, 21):
        snap = diagonalize(diag, float(gamma))
        assert snap.gap == pytest.approx(2.0 * math.sqrt(1.0 + gamma**2), abs=1e-12)
        assert snap.eps0 == pytest.approx(-math.sqrt(1.0 + gamma**2), abs=1e-12)


def test_two_spin_example_matches_oracle():
    prob = IsingProblem(2, [((0,), 0.5), ((0, 1), 1.0)])
    snap = diagonalize(build_diagonal(prob), 0.3)
    vals = lowest_eigs(prob, 0.3)
    assert snap.eps0 == pytest.approx(vals[0], abs=1e-10)
    assert snap.eps1 == pytest.approx(vals[1], abs=1e-10)


@settings(max_examples=25)
@given(
    n=st.integers(1, 5),
    gamma=st.floats(0.0, 5.0),
    seed=st.integers(0, 10_000),
)
def test_random_spectra_match_oracle(n, gamma, seed):
    prob = generate_random_problem(seed=seed, n_spins=n)
    try:
        snap = diagonalize(build_diagonal(prob), gamma)
    except GapAnomalyError:
        # legitimate outcome for near-degenerate draws at Gamma > 0
        return
    vals = lowest_eigs(prob, gamma)
    assert snap.eps0 == pytest.approx(vals[0], abs=1e-10)
    assert snap.eps1 == pytest.approx(vals[1], abs=1e-10)


@pytest.mark.parametrize("n", [3, 9])
def test_diagonalize_gap_check_on_both_branches(monkeypatch, n):
    # N = 3 takes the dense branch, N = 9 the Lanczos branch; both apply the
    # same degeneracy check, which only applies at Gamma > 0.
    prob = generate_random_problem(seed=n, n_spins=n)
    diag = build_diagonal(prob)
    snap = diagonalize(diag, 0.4)
    assert snap.ground_state.dtype == np.float64
    assert np.abs(snap.ground_state - ground_state(prob, 0.4)).max() <= 1e-10
    monkeypatch.setattr(spectrum, "DEGENERACY_TOL", 1e3)
    with pytest.raises(GapAnomalyError):
        diagonalize(diag, 0.4)
    assert diagonalize(diag, 0.0).gap < 1e3


def test_eigenvalues_do_not_depend_on_want_vector():
    for n in (2, 5, 8):
        diag = build_diagonal(generate_random_problem(seed=n, n_spins=n))
        for gamma in (0.01, 0.3, 1.2):
            full = diagonalize(diag, gamma)
            bare = diagonalize(diag, gamma, want_vector=False)
            assert bare.ground_state is None
            assert (bare.eps0, bare.eps1, bare.gap) == (full.eps0, full.eps1, full.gap)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_diagonalize_matches_oracle_across_the_dense_crossover(n):
    # N = 8 is the last dense size; 9 and 10 take the Lanczos branch.
    prob = generate_random_problem(seed=n, n_spins=n)
    diag = build_diagonal(prob)
    for gamma in (1e-4, 1e-2, 0.4, 3.0):
        snap = diagonalize(diag, gamma)
        eps0, eps1 = lowest_eigs(prob, gamma)
        assert abs(snap.eps0 - eps0) <= 1e-12
        assert abs(snap.eps1 - eps1) <= 1e-12
        assert abs(snap.gap - (eps1 - eps0)) <= 1e-12
        assert np.abs(snap.ground_state - ground_state(prob, gamma)).max() <= 1e-10


def test_dense_branch_ends_at_eight_spins(monkeypatch):
    class DenseSolve(Exception):
        pass

    def refuse(*args, **kwargs):
        raise DenseSolve

    monkeypatch.setattr(spectrum, "dsyevr", refuse)
    diag9 = build_diagonal(generate_random_problem(seed=9, n_spins=9))
    assert diagonalize(diag9, 0.4).gap > 0
    diag8 = build_diagonal(generate_random_problem(seed=8, n_spins=8))
    with pytest.raises(DenseSolve):
        diagonalize(diag8, 0.4)


def test_iterative_branch_matches_dense_oracle():
    prob = generate_random_problem(seed=2, n_spins=11, k_max=2)
    snap = diagonalize(build_diagonal(prob), 0.8)
    vals = np.linalg.eigvalsh(_dense_bits(prob, 0.8))[:2]
    assert snap.eps0 == pytest.approx(vals[0], abs=1e-8)
    assert snap.eps1 == pytest.approx(vals[1], abs=1e-8)


def test_size_cap_on_diagonalize():
    prob = IsingProblem(15, [((i,), 0.3 + 0.01 * i) for i in range(15)])
    with pytest.raises(SizeCapError):
        diagonalize(build_diagonal(prob), 1.0)


# ---------------------------------------------------------------- ground state


def test_ground_state_phase_and_residual(rng):
    for seed in (3, 7, 19):
        prob = generate_random_problem(seed=seed, n_spins=4)
        diag = build_diagonal(prob)
        gamma = float(rng.uniform(0.2, 2.0))
        snap = diagonalize(diag, gamma)
        vec = snap.ground_state
        k = int(np.argmax(np.abs(vec)))
        assert vec[k].real > 0 and abs(vec[k].imag) < 1e-12
        h = dense_hamiltonian(prob, gamma)
        hnorm = float(np.abs(diag.energies).max() + prob.n_spins * gamma)
        resid = np.linalg.norm(h @ vec - snap.eps0 * vec)
        assert resid <= 1e-8 * hnorm


def test_ground_state_continuity_along_schedule():
    prob = generate_random_problem(seed=5, n_spins=3)
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=3)
    diag = build_diagonal(prob)
    snaps = [diagonalize(diag, sched.gamma(t), t=t) for t in np.linspace(0.0, 80.0, 60)]
    for a, b in zip(snaps[:-1], snaps[1:]):
        ov = abs(np.vdot(a.ground_state, b.ground_state))
        assert ov > 0.999


def test_degenerate_ferromagnet_is_rejected():
    prob = IsingProblem(2, [((0, 1), 1.0)])
    with pytest.raises(DegenerateGroundStateError) as exc_info:
        check_ising_nondegenerate(build_diagonal(prob))
    err = exc_info.value
    assert sorted(err.states) == [0, 3]
    assert "00" in str(err) and "11" in str(err)


def test_zero_gap_allowed_only_at_gamma_zero():
    # Ferromagnet: two degenerate Ising ground states. diagonalize reports the
    # zero gap at Gamma = 0 without raising; the uniqueness anomaly only
    # applies at Gamma > 0 (where it cannot legitimately occur).
    prob = IsingProblem(2, [((0, 1), 1.0)])
    snap = diagonalize(build_diagonal(prob), 0.0)
    assert snap.gap == pytest.approx(0.0, abs=1e-12)
    snap = diagonalize(build_diagonal(prob), 0.5)
    assert snap.gap > 0


# ------------------------------------------------------------------- profiles


def test_gap_profile_values_and_csv(tmp_path):
    prob = IsingProblem(2, [((0,), 0.5), ((0, 1), 1.0)])
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=2)
    times = np.linspace(0.0, 50.0, 11)
    snaps = gap_profile(prob, sched, times)
    assert len(snaps) == 11
    for snap in snaps:
        assert snap.gamma_value == pytest.approx(sched.gamma(snap.t), rel=1e-15)
        vals = lowest_eigs(prob, snap.gamma_value)
        assert snap.gap == pytest.approx(vals[1] - vals[0], abs=1e-10)
    out = tmp_path / "profile.csv"
    profile_to_csv(snaps, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,gamma,eps0,eps1,gap"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0


def test_gap_profile_rejects_bad_grid():
    prob = IsingProblem(1, [((0,), 1.0)])
    sched = Schedule(delta=0.1, c=1.0, g=ConstantG(0.2), n_spins=1)
    with pytest.raises(ValidationError):
        gap_profile(prob, sched, [1.0, 0.5])
    with pytest.raises(ValidationError):
        gap_profile(prob, sched, [-1.0, 0.5])


# ------------------------------------------------------------------ gap curves


def test_gap_curve_matches_direct_diagonalization(rng):
    prob = generate_random_problem(seed=9, n_spins=3)
    sched = Schedule(delta=1e-2, c=1.5, g=ConstantG(0.1), n_spins=3)
    t_max = 500.0
    curve = build_gap_curve(prob, sched, t_max)
    diag = build_diagonal(prob)
    for t in rng.uniform(0.0, t_max, size=25):
        direct = diagonalize(diag, sched.gamma(float(t)), want_vector=False).gap
        assert curve(float(t)) == pytest.approx(direct, rel=1e-5)
    assert curve.min_gap > 0
    assert 0.0 <= curve.t_min_gap <= t_max
    assert curve(curve.t_min_gap) == pytest.approx(curve.min_gap, rel=1e-8)


def test_gap_curve_keeps_its_samples():
    prob = generate_random_problem(seed=21, n_spins=4)
    sched = Schedule(delta=1e-2, c=1.5, g=ConstantG(0.08), n_spins=4)
    curve = build_gap_curve(prob, sched, 800.0)
    ts = np.array([s.t for s in curve.snapshots])
    assert len(curve.snapshots) == curve.x.size <= curve.n_evaluations
    assert ts[0] == 0.0 and ts[-1] == 800.0 and np.all(np.diff(ts) > 0)
    assert np.allclose(np.log(sched.delta * ts + sched.c), curve.x, rtol=0.0, atol=1e-15)
    assert np.array_equal([s.gap for s in curve.snapshots], curve.gaps)
    assert [s.gamma_value for s in curve.snapshots] == [sched.gamma(t) for t in ts]
    assert curve.t_min_gap in ts


def test_gap_curve_range_check():
    prob = generate_random_problem(seed=9, n_spins=2)
    sched = Schedule(delta=1e-2, c=1.5, g=ConstantG(0.1), n_spins=2)
    curve = build_gap_curve(prob, sched, 100.0)
    with pytest.raises(ValidationError):
        curve(101.0)
    with pytest.raises(ValidationError):
        curve(-1.0)


def test_gap_curve_refinement_sits_near_true_minimum():
    prob = generate_random_problem(seed=21, n_spins=4)
    sched = Schedule(delta=1e-2, c=1.5, g=ConstantG(0.08), n_spins=4)
    curve = build_gap_curve(prob, sched, 800.0)
    diag = build_diagonal(prob)
    # Brute scan at 4x the curve's base resolution.
    ts = np.linspace(0.0, 800.0, 801)
    gaps = [diagonalize(diag, sched.gamma(float(t)), want_vector=False).gap for t in ts]
    assert curve.min_gap <= min(gaps) * (1 + 1e-6)


# -------------------------------------------------------------- gap-bound fits


def test_single_spin_gap_constant_closed_form():
    # Delta/Gamma = 2 sqrt(1+Gamma^2)/Gamma decreases in Gamma, so the grid
    # minimum sits at the upper edge: at Gamma = 2 it is sqrt(5).
    prob = IsingProblem(1, [((0,), 1.0)])
    grid = np.geomspace(0.01, 2.0, 200)
    a_emp, at = instance_gap_constant(prob, grid)
    assert at == pytest.approx(2.0, rel=1e-12)
    assert a_emp == pytest.approx(math.sqrt(5.0), rel=1e-10)


def test_gap_constant_is_valid_lower_bound_on_finer_grid():
    prob = generate_random_problem(seed=13, n_spins=3)
    grid = np.geomspace(0.01, 2.0, 60)
    a_emp, _ = instance_gap_constant(prob, grid)
    diag = build_diagonal(prob)
    finer = np.geomspace(0.012, 1.9, 121)
    for gamma in finer:
        gap = diagonalize(diag, float(gamma), want_vector=False).gap
        assert gap >= 0.99 * a_emp * gamma**prob.n_spins


def test_fit_gap_constants_small_ensemble():
    grid = np.geomspace(0.05, 2.0, 50)
    ensemble = [
        generate_random_problem(seed=s, n_spins=n)
        for n in (2, 3, 4)
        for s in (0, 1)
    ]
    fit = fit_gap_constants(ensemble, grid)
    assert not fit.underdetermined
    assert fit.b_fit >= 0.0
    assert set(fit.per_size_A) == {2, 3, 4}
    assert len(fit.A_empirical) == 6
    # per-size constants are the minima over same-size instances
    for (n, a) in fit.per_size_A.items():
        mine = [
            fit.A_empirical[i]
            for i, p in enumerate(ensemble)
            if p.n_spins == n
        ]
        assert a == pytest.approx(min(mine), rel=1e-15)
    assert fit.A_of(3) > 0


def test_fit_underdetermined_with_few_sizes():
    grid = np.geomspace(0.05, 2.0, 50)
    fit = fit_gap_constants([generate_random_problem(seed=0, n_spins=2)], grid)
    assert fit.underdetermined
    assert fit.b_fit == 0.0
    assert fit.A_of(2) == pytest.approx(fit.per_size_A[2], rel=1e-12)


def test_fit_json_serializable():
    import json

    grid = np.geomspace(0.05, 2.0, 30)
    fit = fit_gap_constants(
        [generate_random_problem(seed=s, n_spins=2) for s in (0, 1)], grid
    )
    blob = json.dumps(fit.to_json())
    assert "a_fit" in blob and "per_size_A" in blob


def test_instance_gap_constant_rejects_bad_grid():
    prob = IsingProblem(1, [((0,), 1.0)])
    with pytest.raises(ValidationError):
        instance_gap_constant(prob, np.array([0.0, 1.0]))
