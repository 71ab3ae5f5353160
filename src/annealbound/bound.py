"""Term-by-term evaluation of the adiabatic excitation bound.

The infinite-time inequality bounds the final excitation norm by

    N|Gamma'(0)|/Delta(0)^2 + lim_t N|Gamma'|/Delta^2
      + int_0^inf N|Gamma''|/Delta^2 + int_0^inf 7 N^2 Gamma'^2 / Delta^3.

The integrals are split at T_max: numerical quadrature below, closed-form
majorant tails above. The tails come from the certified envelopes
|Gamma'| <= delta u^(-g-1) (L + m c') and the analogous second-derivative
envelope, combined with the gap lower bound Delta >= A Gamma^N (or Delta
identically 1 in the oracle mode used by the closed-form tests). For
certified schedules the limit term is 0; its finite-time proxy at T_max is
reported alongside so nothing is hidden.

Every gap that enters a term is a certified lower bound: the measured gap
is the gap curve's Lipschitz envelope (spectrum.GapEnvelope), and A Gamma^N
stays below an envelope on (0, Gamma_max]: the curve's in measured mode, one
seeded at Gamma = 0 and Gamma_max in bounded mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, ProvenanceMismatchError, ValidationError
from .ising import IsingProblem, build_diagonal
from .provenance import pair_hash
from .quadrature import adaptive_integrate, cumulative_at, log_clock_edges
from .schedule import ENVELOPE_L, T_MAX_K, ConditionCertificate, Schedule, certify
from .spectrum import GapCurve, build_gap_curve, gap_envelope
# instance_gap_constant stays bound here: the benchmark's tracer wraps it by this name.
from .spectrum import instance_gap_constant  # noqa: F401

GAP_MODES = ("measured", "bounded", "unit")
QUAD_ABS_TOL = 1e-10
# Initial quadrature panels on [0, t_max], before adaptive refinement.
QUAD_PANELS = 1000


def derivative_norms(schedule: Schedule, t):
    """(N |Gamma'(t)|, N |Gamma''(t)|): operator norms of dH/dt and d2H/dt2.

    The time dependence sits entirely in -Gamma(t) * sum_i sigma^x_i, whose
    derivative norms are exactly N times the scalar derivatives.
    """
    n = schedule.n_spins
    return n * np.abs(schedule.gamma_prime(t)), n * np.abs(schedule.gamma_double_prime(t))


@dataclass(frozen=True, eq=False)
class BoundReport:
    term_initial: float
    term_limit: float
    term_limit_proxy: float
    integral_second_deriv: float
    integral_first_deriv_sq: float
    tail_second_deriv: float
    tail_first_deriv_sq: float
    total: float
    gap_mode: str
    t_max: float
    n_spins: int
    delta: float
    c: float
    constants: dict
    quadrature: dict
    certified: bool
    provenance: str
    samples: dict = field(repr=False)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}


@dataclass(frozen=True)
class ComparisonVerdict:
    satisfied: bool
    slack_ratio: float | None
    final_excitation: float
    total: float
    gap_mode: str
    provenance: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class FiniteTimeBound:
    """Right-hand side of the finite-time inequality at chosen checkpoints:
    initial slope term + current slope term + both partial integrals."""

    times: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    term_initial: float
    term_current: np.ndarray = field(repr=False)
    cum_second_deriv: np.ndarray = field(repr=False)
    cum_first_deriv_sq: np.ndarray = field(repr=False)
    gap_mode: str
    provenance: str


def _analytic_tails(
    cert: ConditionCertificate, n: int, t_max: float, *, A: float, unit: bool
):
    """Closed-form majorants of both integrals over [t_max, infinity).

    Each is the exact integral of a pointwise upper bound on its integrand,
    so differences of tails at two horizons still bound the integral between
    them. Convergence needs (3N-2)L < 1 and delta*t_max + c >= 1.
    """
    delta, c = cert.delta, cert.c
    L, l, m = cert.L, cert.l_const, cert.m
    cp, cpp, g_min = cert.c_prime, cert.c_double_prime, cert.g_min
    u_t = delta * t_max + c
    if u_t < 1.0:
        raise ValidationError(
            f"analytic tails need delta*t_max + c >= 1, got {u_t:g}"
        )
    env1 = L + m * cp
    q = (2.0 * n - 1.0) / (3.0 * n - 2.0)
    if unit:
        tail1 = 7.0 * n**2 * env1**2 * delta * u_t ** (-2 * g_min - 1) / (2 * g_min + 1)
        tail2 = n * delta * (
            (L + env1**2) * u_t ** (-g_min - 1) / (1 + g_min)
            + cpp * u_t ** (-g_min - q) / (g_min + q)
            + 2 * cp * u_t ** (-g_min - 1 - l) / (g_min + 1 + l)
        )
        return tail1, tail2
    x = (3.0 * n - 2.0) * L
    if x >= 1.0:
        raise ValidationError(f"(3N-2)L = {x:g} >= 1: tail integral diverges")
    y = (2.0 * n - 1.0) * L
    tail1 = 7.0 * (n**2 / A**3) * env1**2 * delta * u_t ** (x - 1.0) / (1.0 - x)
    tail2 = (n / A**2) * delta * (
        (L + env1**2) * u_t ** (y - 1.0) / (1.0 - y)
        + cpp * u_t ** (y - q) / (q - y)
        + 2 * cp * u_t ** (y - 1.0 - l) / (1.0 + l - y)
    )
    return tail1, tail2


def _integrands(schedule, gap_fn):
    n = schedule.n_spins

    def second_deriv(t):
        return n * np.abs(schedule.gamma_double_prime(t)) / gap_fn(t) ** 2

    def first_deriv_sq(t):
        return 7.0 * n**2 * np.asarray(schedule.gamma_prime(t)) ** 2 / gap_fn(t) ** 3

    return second_deriv, first_deriv_sq


def _slope_term(schedule, gap_fn, t) -> tuple[float, float]:
    """(Delta(t), N|Gamma'(t)|/Delta(t)^2) at one time t."""
    gap = float(gap_fn(t))
    dh1, _ = derivative_norms(schedule, t)
    return gap, float(dh1) / gap**2


class _BoundCore:
    """What both forms of the bound share up to the last checkpoint t_max:
    the gap model, both integrands, the panel edges (log-clock edges, the
    checkpoints and the gap curve's node times, where its envelope jumps),
    both quadratures and the initial slope term.

    A comes from a gap envelope refined for it, only where A is used: the
    bounded gap itself, or when the caller needs A.
    """

    def __init__(self, problem, schedule, checkpoints, gap_mode, curve, *, need_a):
        if problem.n_spins != schedule.n_spins:
            raise ValidationError(
                f"problem has {problem.n_spins} spins but schedule was built for "
                f"{schedule.n_spins}"
            )
        if gap_mode not in GAP_MODES:
            raise ConfigError(f"gap_mode must be one of {GAP_MODES}, got {gap_mode!r}")
        t_max, n = float(checkpoints[-1]), schedule.n_spins
        self.a_used, self.constants, gap_edges = math.nan, {"A_source": "none"}, []
        if gap_mode == "unit":
            self.gap_fn = lambda t: np.ones_like(np.asarray(t, dtype=float))
        elif gap_mode == "measured":
            self.gap_fn = curve = curve or build_gap_curve(problem, schedule, t_max)
            envelope, gap_edges = curve.envelope, [s.t for s in curve.snapshots if s.t < t_max]
            self.constants.update(
                min_gap=curve.min_gap, t_min_gap=curve.t_min_gap, envelope_slack=envelope.slack()
            )
        else:
            envelope = gap_envelope(build_diagonal(problem))
            self.gap_fn = lambda t: self.a_used * np.asarray(schedule.gamma(t), dtype=float) ** n
        if gap_mode == "bounded" or (need_a and gap_mode == "measured"):
            envelope, self.a_used, a_slack = envelope.gap_constant(schedule.gamma_range(t_max)[1])
            self.constants.update(A_source="envelope", A_slack=a_slack)
        if gap_mode != "unit":
            self.constants["envelope_samples"] = int(envelope.gammas.size)
        self.f2, self.f1 = _integrands(schedule, self.gap_fn)
        if schedule.delta > 0:
            base = log_clock_edges(schedule.delta, schedule.c, t_max, QUAD_PANELS)
        else:
            base = np.linspace(0.0, t_max, QUAD_PANELS + 1)
        self.edges = np.unique(np.concatenate([base, checkpoints, gap_edges]))
        self.res2 = adaptive_integrate(self.f2, self.edges, abs_tol=QUAD_ABS_TOL)
        self.res1 = adaptive_integrate(self.f1, self.edges, abs_tol=QUAD_ABS_TOL)
        self.gap0, self.term_initial = _slope_term(schedule, self.gap_fn, 0.0)


def evaluate_bound(
    problem: IsingProblem,
    schedule: Schedule,
    t_max: float | None = None,
    gap_mode: str = "measured",
    *,
    certificate: ConditionCertificate | None = None,
    curve: GapCurve | None = None,
    l: float = ENVELOPE_L,
    t_max_k: float = T_MAX_K,
    tails: bool = True,
) -> BoundReport:
    """Every term of the excitation bound for one problem/schedule pair.

    gap_mode picks the Delta entering the integrands: "measured" takes the
    gap curve's certified envelope, "bounded" substitutes A Gamma^N, "unit" forces
    Delta = 1 (closed-form test mode). Tails always use the certified
    envelope constants; requesting them for an uncertified schedule is an
    error. With tails disabled the limit term is reported at T_max instead
    of 0 and the total is a finite-horizon quantity.
    """
    delta, c, n = schedule.delta, schedule.c, schedule.n_spins
    t_max = schedule.horizon(t_max, t_max_k)

    certified = False
    if tails:
        if certificate is None:
            certificate = certify(schedule, horizon=t_max, l=l)
        if not certificate.passed:
            raise ValidationError(
                f"analytic tails requested for uncertified schedule: {certificate.reason}"
            )
        certified = True

    core = _BoundCore(problem, schedule, [t_max], gap_mode, curve, need_a=True)
    gap_t, term_limit_proxy = _slope_term(schedule, core.gap_fn, t_max)

    if certified:
        term_limit = 0.0
        tail1, tail2 = _analytic_tails(
            certificate, n, t_max, A=core.a_used, unit=(gap_mode == "unit")
        )
    else:
        term_limit = term_limit_proxy
        tail1, tail2 = 0.0, 0.0

    total = (
        core.term_initial + term_limit + core.res2.value + core.res1.value + tail2 + tail1
    )

    constants = {"A_used": core.a_used, "gap0": core.gap0, "gap_t_max": gap_t, **core.constants}
    if certificate is not None:
        constants.update(
            L=certificate.L, l=certificate.l_const, m=certificate.m,
            c_prime=certificate.c_prime, c_double_prime=certificate.c_double_prime,
            g_min=certificate.g_min,
        )

    ts = core.edges[:: max(1, core.edges.size // 1000)]
    samples = {
        "t": ts,
        "gamma": np.asarray(schedule.gamma(ts)),
        "gap": np.asarray(core.gap_fn(ts)),
        "integrand_second_deriv": core.f2(ts),
        "integrand_first_deriv_sq": core.f1(ts),
    }

    return BoundReport(
        term_initial=core.term_initial,
        term_limit=term_limit,
        term_limit_proxy=term_limit_proxy,
        integral_second_deriv=core.res2.value,
        integral_first_deriv_sq=core.res1.value,
        tail_second_deriv=tail2,
        tail_first_deriv_sq=tail1,
        total=total,
        gap_mode=gap_mode,
        t_max=float(t_max),
        n_spins=n,
        delta=delta,
        c=c,
        constants=constants,
        quadrature={
            "second_deriv": core.res2.diagnostics(),
            "first_deriv_sq": core.res1.diagnostics(),
            "abs_tol": QUAD_ABS_TOL,
        },
        certified=certified,
        provenance=pair_hash(problem.to_json(), schedule.to_json()),
        samples=samples,
    )


def finite_time_rhs(
    problem: IsingProblem,
    schedule: Schedule,
    checkpoints,
    gap_mode: str = "measured",
    *,
    curve: GapCurve | None = None,
) -> FiniteTimeBound:
    """Finite-horizon bound at each checkpoint t:

        N|Gamma'(0)|/Delta(0)^2 + N|Gamma'(t)|/Delta(t)^2
          + int_0^t (N|Gamma''|/Delta^2 + 7 N^2 Gamma'^2/Delta^3).

    Valid without any certificate; this is the inequality the trajectory
    tests check pointwise.
    """
    pts = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    if pts.size == 0 or np.any(pts <= 0) or np.any(np.diff(pts) < 0):
        raise ValidationError("checkpoints must be positive and sorted ascending")
    core = _BoundCore(problem, schedule, pts, gap_mode, curve, need_a=False)
    cum2 = cumulative_at(core.f2, core.res2, pts)
    cum1 = cumulative_at(core.f1, core.res1, pts)
    term_current = np.array([_slope_term(schedule, core.gap_fn, t)[1] for t in pts])

    rhs = core.term_initial + term_current + cum2 + cum1
    return FiniteTimeBound(
        times=pts,
        rhs=rhs,
        term_initial=core.term_initial,
        term_current=term_current,
        cum_second_deriv=cum2,
        cum_first_deriv_sq=cum1,
        gap_mode=gap_mode,
        provenance=pair_hash(problem.to_json(), schedule.to_json()),
    )


def compare(report: BoundReport, trajectory, *, atol: float = 0.0) -> ComparisonVerdict:
    """Verdict on trajectory.final_excitation <= report.total.

    Refuses to compare artifacts built from different problem/schedule
    inputs, which the content hashes detect. atol absorbs integrator noise
    in regimes where both sides are essentially zero (stationary runs).
    """
    if report.provenance != trajectory.provenance:
        raise ProvenanceMismatchError(
            f"report hash {report.provenance[:12]} != trajectory hash "
            f"{trajectory.provenance[:12]}"
        )
    exc = float(trajectory.final_excitation)
    satisfied = exc <= report.total + atol
    slack = (report.total / exc) if exc > 0 else None
    return ComparisonVerdict(
        satisfied=bool(satisfied),
        slack_ratio=slack,
        final_excitation=exc,
        total=report.total,
        gap_mode=report.gap_mode,
        provenance=report.provenance,
    )


def integrand_samples_to_csv(report: BoundReport, path) -> None:
    cols = ["t", "gamma", "gap", "integrand_second_deriv", "integrand_first_deriv_sq"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in zip(*(report.samples[k] for k in cols)):
            writer.writerow([repr(float(v)) for v in row])
