"""Transverse-field decay schedules Gamma(t) = (delta*t + c)^(-g(t)).

The exponent g is one of three families:

  ConstantG      g(t) = g0
  PowerDecayG    g(t) = g0 + g1 * (delta*t + c)^(-l_exp), on the same clock
                 u = delta*t + c as the certifier envelopes, so its derivative
                 envelope constants are exact
  TabulatedG     twice-differentiable cubic interpolation of (t, g) samples

certify() machine-checks the convergence conditions on a log-spaced grid:
a positive g bounded by L with L < 1/(3N-2) strictly, a first-derivative
envelope |g'| <= delta*c' / u^(1+l), a second-derivative envelope
|g''| <= delta^2*c'' * u^(-1-(2N-1)/(3N-2)) / log(u), and a strictly
decreasing Gamma. The certificate stores every constant the downstream bound
evaluation needs (L, l, c', c'', m, min g) plus per-condition verdicts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ValidationError
from .quadrature import log_clock_edges

# Horizon constant K: runs, bounds and certificates that are given no horizon
# stop at T_max = K/delta (Schedule.horizon).
T_MAX_K = 10.0
# Default exponent l of the first-derivative envelope |g'| <= delta c'/u^(1+l).
ENVELOPE_L = 0.5
# Points of the log-clock grid on which certify checks the conditions.
CERT_GRID_POINTS = 10_000


def scalar_or_array(out, like):
    """`out` as a Python float when the input `like` is a scalar (0-d), else
    `out` unchanged: functions of time return the shape they were given."""
    return float(out) if np.ndim(like) == 0 else out


@dataclass(frozen=True)
class ConstantG:
    g0: float

    def __post_init__(self):
        if not (self.g0 > 0):
            raise ValidationError(f"constant g must be positive, got {self.g0}")

    def value(self, t, u):
        return np.full_like(np.asarray(t, dtype=float), self.g0)

    def deriv1(self, t, u, delta):
        return np.zeros_like(np.asarray(t, dtype=float))

    def deriv2(self, t, u, delta):
        return np.zeros_like(np.asarray(t, dtype=float))

    def to_json(self):
        return {"kind": "constant", "g0": self.g0}


@dataclass(frozen=True)
class PowerDecayG:
    """g(t) = g0 + g1 * u^(-l_exp) with u = delta*t + c."""

    g0: float
    g1: float
    l_exp: float

    def __post_init__(self):
        if not (self.l_exp > 0):
            raise ValidationError(f"l_exp must be positive, got {self.l_exp}")
        if not (self.g0 > 0):
            raise ValidationError(f"g0 must be positive, got {self.g0}")

    def value(self, t, u):
        return self.g0 + self.g1 * np.power(u, -self.l_exp)

    def deriv1(self, t, u, delta):
        return -self.g1 * self.l_exp * delta * np.power(u, -self.l_exp - 1.0)

    def deriv2(self, t, u, delta):
        return (
            self.g1 * self.l_exp * (self.l_exp + 1.0) * delta**2
            * np.power(u, -self.l_exp - 2.0)
        )

    def to_json(self):
        return {"kind": "power_decay", "g0": self.g0, "g1": self.g1, "l_exp": self.l_exp}


@dataclass(frozen=True)
class TabulatedG:
    """Cubic-spline g from (t, g) samples; no extrapolation beyond the table."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 4 or v.shape != t.shape:
            raise ValidationError("tabulated g needs >= 4 matching (t, g) samples")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("tabulated g times must be strictly increasing")
        if t[0] != 0.0:
            raise ValidationError("tabulated g must start at t = 0")
        object.__setattr__(self, "times", tuple(t))
        object.__setattr__(self, "values", tuple(v))
        dense = self._spline(np.linspace(t[0], t[-1], 4001))
        if not np.all(dense > 0):
            raise ValidationError("tabulated g must be positive over its whole range")

    @cached_property
    def _spline(self) -> CubicSpline:
        return CubicSpline(np.asarray(self.times), np.asarray(self.values))

    @cached_property
    def _d1(self):
        return self._spline.derivative(1)

    @cached_property
    def _d2(self):
        return self._spline.derivative(2)

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1] * (1 + 1e-12)):
            raise ValidationError(
                f"t outside tabulated range [{self.times[0]}, {self.times[-1]}]"
            )
        return t

    def value(self, t, u):
        return self._spline(self._check_range(t))

    def deriv1(self, t, u, delta):
        return self._d1(self._check_range(t))

    def deriv2(self, t, u, delta):
        return self._d2(self._check_range(t))

    def to_json(self):
        return {"kind": "tabulated", "times": list(self.times), "values": list(self.values)}


GFunction = ConstantG | PowerDecayG | TabulatedG


def g_function_from_json(data: dict) -> GFunction:
    kind = data.get("kind")
    try:
        if kind == "constant":
            return ConstantG(g0=float(data["g0"]))
        if kind == "power_decay":
            return PowerDecayG(g0=float(data["g0"]), g1=float(data["g1"]), l_exp=float(data["l_exp"]))
        if kind == "tabulated":
            return TabulatedG(times=tuple(data["times"]), values=tuple(data["values"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed g entry ({kind!r}): {exc}") from exc
    raise ValidationError(f"unknown g kind {kind!r}")


@dataclass(frozen=True)
class Schedule:
    """Gamma(t) = (delta*t + c)^(-g(t)).

    delta = 0 freezes Gamma (useful for stationary runs); certification
    requires delta > 0.
    """

    delta: float
    c: float
    g: GFunction
    n_spins: int

    def __post_init__(self):
        if not (self.delta >= 0) or not math.isfinite(self.delta):
            raise ValidationError(f"delta must be finite and >= 0, got {self.delta}")
        if not (self.c > 0) or not math.isfinite(self.c):
            raise ValidationError(f"c must be finite and > 0, got {self.c}")
        if self.n_spins < 1:
            raise ValidationError(f"n_spins must be >= 1, got {self.n_spins}")

    def _u(self, t):
        return self.delta * np.asarray(t, dtype=float) + self.c

    def gamma(self, t):
        """Field amplitude (delta*t + c)^(-g(t))."""
        t_arr = np.asarray(t, dtype=float)
        u = self._u(t_arr)
        out = np.power(u, -self.g.value(t_arr, u))
        return scalar_or_array(out, t_arr)

    def gamma_prime(self, t):
        """d(Gamma)/dt = Gamma * (-g'(t) log u - delta g(t)/u)."""
        t_arr = np.asarray(t, dtype=float)
        u = self._u(t_arr)
        g = self.g.value(t_arr, u)
        g1 = self.g.deriv1(t_arr, u, self.delta)
        out = np.power(u, -g) * (-g1 * np.log(u) - self.delta * g / u)
        return scalar_or_array(out, t_arr)

    def gamma_double_prime(self, t):
        """Second derivative from the explicit product-rule expansion."""
        t_arr = np.asarray(t, dtype=float)
        u = self._u(t_arr)
        g = self.g.value(t_arr, u)
        g1 = self.g.deriv1(t_arr, u, self.delta)
        g2 = self.g.deriv2(t_arr, u, self.delta)
        logu = np.log(u)
        gam = np.power(u, -g)
        inner = -g1 * logu - self.delta * g / u
        out = gam * (self.delta**2 * g / u**2 - g2 * logu - 2.0 * self.delta * g1 / u) + gam * inner**2
        return scalar_or_array(out, t_arr)

    def gamma_range(self, t_max: float) -> tuple[float, float]:
        """(min, max) of Gamma over 4097 equally spaced times in [0, t_max].
        Gamma need not be monotone, so the endpoints alone do not suffice."""
        gam = self.gamma(np.linspace(0.0, t_max, 4097))
        return float(np.min(gam)), float(np.max(gam))

    def horizon(self, t_max: float | None = None, t_max_k: float = T_MAX_K) -> float:
        """The horizon of a run, bound or certificate: t_max when given, else
        T_max = K/delta, past which the analytic tails take over. A frozen
        schedule (delta = 0) has no default horizon."""
        if t_max is None:
            if self.delta == 0.0:
                raise ValidationError("horizon required when delta = 0")
            t_max = t_max_k / self.delta
        if not (t_max > 0):
            raise ValidationError(f"horizon must be positive, got {t_max}")
        return t_max

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "c": self.c,
            "n_spins": self.n_spins,
            "g": self.g.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        try:
            return cls(
                delta=float(data["delta"]),
                c=float(data["c"]),
                g=g_function_from_json(data["g"]),
                n_spins=int(data["n_spins"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed schedule entry: {exc}") from exc


def _m_value(delta: float, c: float, l_const: float) -> float:
    """max over u in [c, infinity) of |log u| / u^l (u ranges over delta*t + c).

    |log u|/u^l decreases on (0, 1), vanishes at u = 1, and peaks at
    u = e^(1/l) with value 1/(e*l) before decaying again. With delta = 0 the
    range collapses to the single point u = c.
    """
    if delta == 0.0:
        return abs(math.log(c)) / c**l_const
    peak_u = math.exp(1.0 / l_const)
    at_c = abs(math.log(c)) / c**l_const
    if c >= peak_u:
        return at_c
    return max(at_c, 1.0 / (math.e * l_const))


def compute_m(schedule: Schedule, l_const: float) -> float:
    """Exact maximum of |log(delta*t+c)| / (delta*t+c)^l over t >= 0."""
    if not (l_const > 0):
        raise ValidationError(f"l_const must be positive, got {l_const}")
    return _m_value(schedule.delta, schedule.c, l_const)


@dataclass(frozen=True)
class ConditionCertificate:
    """Outcome of machine-checking the convergence conditions on a grid."""

    n_spins: int
    delta: float
    c: float
    L: float
    l_const: float
    c_prime: float
    c_double_prime: float
    m: float
    g_min: float
    checks: dict[str, bool]
    passed: bool
    reason: str | None
    offending_t: float | None
    grid: dict

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ConditionCertificate":
        return cls(**data)


def _envelope_constant(ratio, given, t, which: str):
    """(constant, failure reason or None, offending t) of one derivative
    envelope ratio <= constant on the grid t. With `given` None the constant
    is the grid maximum, which fails while it is still growing at the horizon,
    since the grid then says nothing about larger t; else `given` is checked
    pointwise and the first violating grid time is reported."""
    if given is None:
        const = float(np.max(ratio))
        if const > 0 and ratio[-1] >= const * (1 - 1e-12) and ratio[-1] > ratio[-2] * (1 + 1e-12):
            return const, f"{which}-derivative envelope constant still growing at horizon", t[-1]
        return const, None, None
    const = float(given)
    bad = ratio > const * (1 + 1e-12)
    if np.any(bad):
        off = t[bad][0]
        return const, f"{which}-derivative envelope violated at t={off:g}", off
    return const, None, None


def certify(
    schedule: Schedule,
    horizon: float | None = None,
    *,
    l: float = ENVELOPE_L,
    c_prime: float | None = None,
    c_double_prime: float | None = None,
) -> ConditionCertificate:
    """Check the convergence conditions for this schedule on [0, horizon],
    on a grid of CERT_GRID_POINTS times.

    When c_prime / c_double_prime are omitted, the smallest constants making
    the derivative envelopes hold on the grid are computed and reported; an
    envelope whose required constant is still growing at the horizon fails.
    When they are given, the envelopes are checked pointwise and the first
    violating grid time is reported. horizon defaults to Schedule.horizon().
    """
    if not (l > 0):
        raise ValidationError(f"l must be positive, got {l}")
    horizon = schedule.horizon(horizon)

    delta, c, n = schedule.delta, schedule.c, schedule.n_spins
    if delta > 0:
        t = log_clock_edges(delta, c, horizon, CERT_GRID_POINTS - 1)
    else:
        t = np.linspace(0.0, horizon, CERT_GRID_POINTS)
    u = delta * t + c
    grid_desc = {"kind": "log_u" if delta > 0 else "linear", "points": CERT_GRID_POINTS, "horizon": float(horizon)}
    m = _m_value(delta, c, l)
    l_cap = 1.0 / (3 * n - 2)

    def failed(reason, checks, *, L=np.nan, g_min=np.nan, cp=np.nan, cpp=np.nan, off_t=None):
        return ConditionCertificate(
            n_spins=n, delta=delta, c=c, L=float(L), l_const=l,
            c_prime=float(cp), c_double_prime=float(cpp), m=m, g_min=float(g_min),
            checks=checks, passed=False, reason=reason,
            offending_t=None if off_t is None else float(off_t), grid=grid_desc,
        )

    checks = {
        "delta_positive": delta > 0,
        "g_positive": False,
        "L_strict": False,
        "deriv1_envelope": False,
        "deriv2_envelope": False,
        "gamma_decreasing": False,
    }

    g_vals = np.asarray(schedule.g.value(t, u), dtype=float)
    if not np.all(np.isfinite(g_vals)):
        return failed("g(t) non-finite on grid", checks, off_t=t[~np.isfinite(g_vals)][0])
    if not np.all(g_vals > 0):
        bad = t[g_vals <= 0][0]
        return failed(f"g(t) <= 0 at t={bad:g}", checks, off_t=bad)
    checks["g_positive"] = True

    L = float(np.max(g_vals))
    g_min = float(np.min(g_vals))
    checks["L_strict"] = L < l_cap
    if not checks["L_strict"]:
        return failed(
            f"L violates strict inequality: L={L:g} >= 1/(3N-2)={l_cap:g}",
            checks, L=L, g_min=g_min,
        )

    d1 = np.asarray(schedule.g.deriv1(t, u, delta), dtype=float)
    d2 = np.asarray(schedule.g.deriv2(t, u, delta), dtype=float)
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        bad = t[~(np.isfinite(d1) & np.isfinite(d2))][0]
        return failed("non-finite g derivative on grid", checks, L=L, g_min=g_min, off_t=bad)

    if delta == 0.0:
        return failed("delta must be positive for certification", checks, L=L, g_min=g_min)

    # First-derivative envelope: |g'| * u^(1+l) / delta <= c'.
    ratio1 = np.abs(d1) * np.power(u, 1.0 + l) / delta
    cp, reason, off = _envelope_constant(ratio1, c_prime, t, "first")
    if reason is not None:
        return failed(reason, checks, L=L, g_min=g_min, cp=cp, off_t=off)
    checks["deriv1_envelope"] = True

    # Second-derivative envelope: |g''| * u^(1+q) * log(u) / delta^2 <= c''
    # with q = (2N-1)/(3N-2); only meaningful where log(u) > 0.
    q = (2.0 * n - 1.0) / (3.0 * n - 2.0)
    logu = np.log(u)
    pos = logu > 0
    if np.any(~pos & (np.abs(d2) > 0)):
        off = t[~pos & (np.abs(d2) > 0)][0]
        return failed(
            f"second-derivative envelope undefined (log(u) <= 0) with g'' != 0 at t={off:g}",
            checks, L=L, g_min=g_min, cp=cp, off_t=off,
        )
    ratio2 = np.zeros_like(t)
    ratio2[pos] = np.abs(d2[pos]) * np.power(u[pos], 1.0 + q) * logu[pos] / delta**2
    cpp, reason, off = _envelope_constant(ratio2, c_double_prime, t, "second")
    if reason is not None:
        return failed(reason, checks, L=L, g_min=g_min, cp=cp, cpp=cpp, off_t=off)
    checks["deriv2_envelope"] = True

    gp = np.asarray(schedule.gamma_prime(t), dtype=float)
    checks["gamma_decreasing"] = bool(np.all(gp < 0))
    if not checks["gamma_decreasing"]:
        off = t[gp >= 0][0]
        return failed(f"Gamma not strictly decreasing at t={off:g}", checks, L=L, g_min=g_min, cp=cp, cpp=cpp, off_t=off)

    return ConditionCertificate(
        n_spins=n, delta=delta, c=c, L=L, l_const=l, c_prime=cp, c_double_prime=cpp,
        m=m, g_min=g_min, checks=checks, passed=all(checks.values()), reason=None,
        offending_t=None, grid=grid_desc,
    )
