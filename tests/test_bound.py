"""Excitation bound: term values, closed-form modes, internal consistency."""

import json
import math

import mpmath
import numpy as np
import pytest

from annealbound import spectrum
from annealbound import (
    ConfigError,
    ConstantG,
    IntegratorConfig,
    IsingProblem,
    ProvenanceMismatchError,
    Schedule,
    ValidationError,
    build_gap_curve,
    certify,
    compare,
    derivative_norms,
    evaluate_bound,
    evolve,
    finite_time_rhs,
    generate_random_problem,
    integrand_samples_to_csv,
)

from oracles import SX, fd1, fd2, site_operator


def _sched(delta=0.1, c=1.0, g0=0.1, n=2):
    return Schedule(delta=delta, c=c, g=ConstantG(g0), n_spins=n)


# ----------------------------------------------------------- derivative norms


def test_derivative_norms_frozen_value():
    # N |Gamma'(0)| with N=4, g=0.1, delta=0.1, c=1: 4 * 0.1*0.1 = 0.04
    d1, d2 = derivative_norms(_sched(g0=0.1, n=4), 0.0)
    assert d1 == pytest.approx(0.04, abs=1e-16)
    assert d2 == pytest.approx(4 * 0.1 * 1.1 * 0.01, rel=1e-12)


def test_derivative_norms_match_dense_operator_norm():
    # dH/dt = -Gamma'(t) sum sigma_x; its spectral norm is N |Gamma'|.
    n = 3
    s = _sched(delta=0.2, c=1.5, g0=0.15, n=n)
    x_total = sum(site_operator(SX, i, n) for i in range(n))
    for t in (0.0, 3.0, 17.0):
        h1 = -fd1(s.gamma, t, 1e-3) * x_total
        h2 = -fd2(s.gamma, t, 1e-3) * x_total
        d1, d2 = derivative_norms(s, t)
        assert d1 == pytest.approx(np.abs(np.linalg.eigvalsh(h1)).max(), rel=1e-8)
        assert d2 == pytest.approx(np.abs(np.linalg.eigvalsh(h2)).max(), rel=1e-6)


def test_derivative_norms_vectorized():
    s = _sched()
    d1, d2 = derivative_norms(s, np.array([0.0, 1.0, 2.0]))
    assert d1.shape == (3,)
    assert np.all(d1 > 0) and np.all(d2 > 0)


# -------------------------------------------------- closed forms in unit mode


def _unit_mode_closed_forms(n, delta, c, g0, t_max):
    """Independent evaluation of every unit-gap term via mpmath quadrature."""
    u_T = delta * t_max + c
    gp = lambda t: -g0 * delta * (delta * t + c) ** (-g0 - 1)
    gpp = lambda t: g0 * (g0 + 1) * delta**2 * (delta * t + c) ** (-g0 - 2)
    i2 = float(mpmath.quad(lambda t: n * abs(gpp(t)), [0, t_max]))
    i1 = float(mpmath.quad(lambda t: 7 * n**2 * gp(t) ** 2, [0, t_max]))
    tail2 = float(mpmath.quad(lambda t: n * abs(gpp(t)), [t_max, mpmath.inf]))
    tail1 = float(mpmath.quad(lambda t: 7 * n**2 * gp(t) ** 2, [t_max, mpmath.inf]))
    return i2, i1, tail2, tail1


@pytest.mark.parametrize(
    "n,delta,c,g0,t_max_k",
    [(1, 1e-2, 2.0, 0.2, 10.0), (3, 0.05, 1.5, 0.1, 20.0)],
)
def test_unit_mode_matches_quadrature_oracle(n, delta, c, g0, t_max_k):
    prob = generate_random_problem(seed=1, n_spins=n)
    s = _sched(delta=delta, c=c, g0=g0, n=n)
    t_max = t_max_k / delta
    rep = evaluate_bound(prob, s, t_max=t_max, gap_mode="unit")
    i2, i1, tail2, tail1 = _unit_mode_closed_forms(n, delta, c, g0, t_max)
    assert rep.integral_second_deriv == pytest.approx(i2, rel=1e-6)
    assert rep.integral_first_deriv_sq == pytest.approx(i1, rel=1e-6)
    assert rep.tail_second_deriv == pytest.approx(tail2, rel=1e-6)
    assert rep.tail_first_deriv_sq == pytest.approx(tail1, rel=1e-6)
    assert rep.term_initial == pytest.approx(n * g0 * delta * c ** (-g0 - 1), rel=1e-12)
    assert rep.term_limit == 0.0
    assert rep.total == pytest.approx(
        rep.term_initial + i2 + i1 + tail2 + tail1, rel=1e-9
    )


def test_unit_mode_tail_closed_forms_directly():
    # For constant g the unit-mode tails have elementary antiderivatives.
    n, delta, c, g0 = 2, 0.05, 1.5, 0.125
    t_max = 400.0
    u_T = delta * t_max + c
    rep = evaluate_bound(
        generate_random_problem(seed=1, n_spins=n),
        _sched(delta=delta, c=c, g0=g0, n=n),
        t_max=t_max,
        gap_mode="unit",
    )
    explicit1 = 7 * n**2 * (g0 * delta) ** 2 / delta * u_T ** (-2 * g0 - 1) / (2 * g0 + 1)
    explicit2 = n * g0 * (g0 + 1) * delta * u_T ** (-g0 - 1) / (g0 + 1)
    assert rep.tail_first_deriv_sq == pytest.approx(explicit1, rel=1e-12)
    assert rep.tail_second_deriv == pytest.approx(explicit2, rel=1e-12)


# --------------------------------------------------------- mode relationships


def test_bounded_mode_dominates_measured_mode():
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    rep_m = evaluate_bound(prob, s, gap_mode="measured")
    rep_b = evaluate_bound(prob, s, gap_mode="bounded")
    assert rep_b.total >= rep_m.total * (1 - 1e-9)
    # Both A come from envelopes refined to within ENVELOPE_EPS of the same
    # sampled minimum of Delta / Gamma^N, from different samples.
    assert rep_m.constants["A_source"] == rep_b.constants["A_source"] == "envelope"
    assert rep_m.constants["A_used"] == pytest.approx(
        rep_b.constants["A_used"], rel=spectrum.ENVELOPE_EPS
    )


def test_tail_is_consistent_with_extended_quadrature():
    # the tail at T must bound the measured-mode integral over [T, 2T]
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    T = 10.0 / 1e-2
    curve = build_gap_curve(prob, s, 2 * T)
    rep_T = evaluate_bound(prob, s, t_max=T, curve=curve)
    rep_2T = evaluate_bound(prob, s, t_max=2 * T, curve=curve)
    for attr in ("integral_second_deriv", "integral_first_deriv_sq"):
        quad_piece = getattr(rep_2T, attr) - getattr(rep_T, attr)
        tail_attr = attr.replace("integral", "tail")
        tail_piece = getattr(rep_T, tail_attr) - getattr(rep_2T, tail_attr)
        assert quad_piece <= tail_piece * (1 + 1e-9) + 1e-15


def test_delta_scaling_of_every_term():
    prob = IsingProblem(1, [((0,), 1.0)])
    reports = []
    for delta in (1e-2, 1e-3):
        s = _sched(delta=delta, c=2.0, g0=0.25, n=1)
        reports.append(evaluate_bound(prob, s, gap_mode="measured", t_max_k=10.0))
    for attr in (
        "term_initial",
        "integral_second_deriv",
        "integral_first_deriv_sq",
        "tail_second_deriv",
        "tail_first_deriv_sq",
        "total",
    ):
        ratio = getattr(reports[0], attr) / getattr(reports[1], attr)
        assert 9.5 <= ratio <= 10.5, f"{attr}: {ratio}"


# -------------------------------------------------------- finite-horizon form


def test_finite_time_rhs_dominates_trajectory():
    prob = generate_random_problem(seed=17, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    traj = evolve(prob, s, IntegratorConfig(max_time=1000.0))
    idx = np.linspace(1, len(traj.times) - 1, 20, dtype=int)
    pts = traj.times[np.unique(idx)]
    ft = finite_time_rhs(prob, s, pts)
    exc = traj.excitation_norms[np.unique(idx)]
    assert np.all(exc <= ft.rhs)
    assert np.all(ft.rhs > 0)
    assert ft.term_initial > 0


@pytest.mark.parametrize("gap_mode", ["measured", "bounded", "unit"])
def test_both_bound_forms_share_one_core(gap_mode):
    # Without tails, the infinite-time report at T_max and the finite-time
    # bound at the single checkpoint T_max are the same computation.
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    rep = evaluate_bound(prob, s, gap_mode=gap_mode, tails=False)
    ft = finite_time_rhs(prob, s, [rep.t_max], gap_mode=gap_mode)
    assert rep.term_initial == ft.term_initial
    assert rep.term_limit_proxy == ft.term_current[-1]
    assert rep.integral_second_deriv == pytest.approx(ft.cum_second_deriv[-1], rel=1e-12)
    assert rep.integral_first_deriv_sq == pytest.approx(ft.cum_first_deriv_sq[-1], rel=1e-12)
    assert rep.total == pytest.approx(ft.rhs[-1], rel=1e-12)


def test_measured_finite_time_rhs_runs_no_instance_gap_scan(monkeypatch):
    # A enters only the bounded gap and evaluate_bound's tails and report, so
    # the measured finite-time bound never refines an envelope for it.
    def no_scan(*args, **kwargs):
        raise AssertionError("A refinement in measured finite-time bound")

    monkeypatch.setattr(spectrum.GapEnvelope, "gap_constant", no_scan)
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    ft = finite_time_rhs(prob, s, [10.0, 100.0, 1000.0])
    assert np.all(np.isfinite(ft.rhs))


def test_finite_time_rhs_validation():
    prob = generate_random_problem(seed=17, n_spins=2)
    s = _sched(n=2)
    with pytest.raises(ValidationError):
        finite_time_rhs(prob, s, [])
    with pytest.raises(ValidationError):
        finite_time_rhs(prob, s, [-1.0, 2.0])
    with pytest.raises(ValidationError):
        finite_time_rhs(prob, s, [2.0, 1.0])


# ------------------------------------------------------------------- compare


def test_compare_happy_path_and_slack():
    prob = IsingProblem(1, [((0,), 1.0)])
    s = _sched(delta=1e-3, c=2.0, g0=0.25, n=1)
    traj = evolve(prob, s, IntegratorConfig(max_time=1e4))
    rep = evaluate_bound(prob, s, t_max=1e4)
    verdict = compare(rep, traj)
    assert verdict.satisfied
    assert verdict.slack_ratio is not None and verdict.slack_ratio > 1.0
    assert verdict.final_excitation == traj.final_excitation
    assert verdict.provenance == rep.provenance


def test_compare_rejects_mismatched_inputs():
    prob_a = IsingProblem(1, [((0,), 1.0)])
    prob_b = IsingProblem(1, [((0,), 0.9)])
    s = _sched(delta=1e-3, c=2.0, g0=0.25, n=1)
    traj = evolve(prob_a, s, IntegratorConfig(max_time=100.0))
    rep = evaluate_bound(prob_b, s, t_max=100.0, tails=False)
    with pytest.raises(ProvenanceMismatchError):
        compare(rep, traj)


def test_compare_stationary_needs_explicit_tolerance():
    # delta = 0: the bound is exactly zero while the integrator reports
    # harmless residual excitation ~1e-8; without atol that is an honest
    # violation, with it the verdict reflects the physics.
    prob = generate_random_problem(seed=8, n_spins=2)
    s = Schedule(delta=0.0, c=1.0, g=ConstantG(0.25), n_spins=2)
    traj = evolve(prob, s, IntegratorConfig(max_time=150.0))
    rep = evaluate_bound(prob, s, t_max=150.0, gap_mode="bounded", tails=False)
    assert rep.total == pytest.approx(0.0, abs=1e-15)
    if traj.final_excitation > 0:
        assert not compare(rep, traj).satisfied
    assert compare(rep, traj, atol=1e-6).satisfied


# ------------------------------------------------------------ report plumbing


def test_report_constants_and_provenance():
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    rep = evaluate_bound(prob, s)
    assert rep.certified
    assert rep.gap_mode == "measured"
    for key in ("A_used", "A_source", "L", "m", "g_min", "gap0", "gap_t_max"):
        assert key in rep.constants
    assert rep.constants["L"] == pytest.approx(0.125)
    # A and the measured gap come from one envelope, which reports its size
    # and how far it sits below its own samples.
    assert rep.constants["A_source"] == "envelope"
    assert rep.constants["envelope_samples"] > spectrum.GAP_CURVE_NODES
    assert 0.0 <= rep.constants["envelope_slack"] <= spectrum.ENVELOPE_EPS
    assert 0.0 <= rep.constants["A_slack"] <= spectrum.ENVELOPE_EPS
    assert rep.t_max == pytest.approx(10.0 / 1e-2)
    blob = json.dumps(rep.to_json())
    assert "samples" not in json.loads(blob)


def test_report_csv_samples(tmp_path):
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-2, c=2.0, g0=0.125, n=2)
    rep = evaluate_bound(prob, s)
    path = tmp_path / "samples.csv"
    integrand_samples_to_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,gamma,gap,integrand_second_deriv,integrand_first_deriv_sq"
    assert len(lines) > 10


# ---------------------------------------------------------------- error paths


def test_uncertified_schedule_cannot_claim_tails():
    n = 2
    prob = generate_random_problem(seed=7, n_spins=n)
    s = _sched(delta=1e-2, c=2.0, g0=1.0 / (3 * n - 2), n=n)  # boundary g fails
    with pytest.raises(ValidationError, match="certif"):
        evaluate_bound(prob, s, gap_mode="unit")
    rep = evaluate_bound(prob, s, gap_mode="unit", tails=False)
    assert not rep.certified
    assert rep.term_limit == pytest.approx(rep.term_limit_proxy)


def test_tails_need_horizon_past_unit_clock():
    # delta*t_max + c < 1 makes u_T^(negative power) amplify instead of decay;
    # the tail formulas are only valid from u_T >= 1.
    prob = generate_random_problem(seed=7, n_spins=2)
    s = _sched(delta=1e-3, c=0.5, g0=0.125, n=2)
    with pytest.raises(ValidationError, match="t_max"):
        evaluate_bound(prob, s, t_max=100.0, gap_mode="unit")


def test_bad_gap_mode_and_size_mismatch():
    prob = generate_random_problem(seed=7, n_spins=2)
    with pytest.raises(ConfigError):
        evaluate_bound(prob, _sched(n=2), gap_mode="exact")
    with pytest.raises(ValidationError):
        evaluate_bound(prob, _sched(n=3))


def test_delta_zero_requires_explicit_horizon_and_no_tails():
    prob = generate_random_problem(seed=8, n_spins=2)
    s = Schedule(delta=0.0, c=1.0, g=ConstantG(0.25), n_spins=2)
    with pytest.raises(ValidationError):
        evaluate_bound(prob, s, gap_mode="bounded", tails=False)  # no t_max
    with pytest.raises(ValidationError):
        evaluate_bound(prob, s, t_max=100.0, gap_mode="bounded", tails=True)
