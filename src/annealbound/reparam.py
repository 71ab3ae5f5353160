"""Correspondence between bounded s(t) in [0, 1] anneals and the decay form.

A monotone s(t) with s -> 1 defines the reparameterized clock
t_tilde = int_0^t s(u) du and a field Gamma(t_tilde) = (1 - s)/s; conversely
a target Gamma(t_tilde) = t_tilde^(-g) is realized by
s = 1/(1 + k * t_tilde^(-g)). The proportionality constant k is not pinned
down by the correspondence; it defaults to 1 and is exposed as a knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ValidationError
from .quadrature import adaptive_integrate, cumulative_at
from .schedule import Schedule, scalar_or_array

_LOG2 = math.log(2.0)


def _log_cosh(t):
    # log cosh t = logaddexp(t, -t) - log 2, overflow-free for any t.
    return np.logaddexp(t, -t) - _LOG2


@dataclass(frozen=True)
class TanhS:
    """s(t) = tanh t; its clock integral has the closed form log cosh t."""

    def __call__(self, t):
        return np.tanh(np.asarray(t, dtype=float))

    def t_tilde_exact(self, t):
        return _log_cosh(np.asarray(t, dtype=float))

    def start_time(self, s0: float = 0.1) -> float:
        """Time where s reaches s0; runs avoid the s = 0 endpoint by starting here."""
        if not (0 < s0 < 1):
            raise ValidationError(f"s0 must be in (0, 1), got {s0}")
        return math.atanh(s0)

    def to_json(self):
        return {"kind": "tanh"}


@dataclass(frozen=True)
class RationalFromSchedule:
    """s(t) = 1/(1 + Gamma(t)); increases exactly when Gamma decreases."""

    schedule: Schedule

    def __call__(self, t):
        return 1.0 / (1.0 + np.asarray(self.schedule.gamma(t), dtype=float))

    def to_json(self):
        return {"kind": "rational_from_schedule", "schedule": self.schedule.to_json()}


@dataclass(frozen=True)
class TabulatedS:
    """Monotone (PCHIP) interpolation of (t, s) samples in [0, 1]."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise ValidationError("tabulated s needs >= 2 matching (t, s) samples")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValidationError("tabulated s times must start at 0 and increase")
        if np.any(v < 0) or np.any(v > 1) or np.any(np.diff(v) < 0):
            raise ValidationError("tabulated s values must be nondecreasing in [0, 1]")
        object.__setattr__(self, "times", tuple(t))
        object.__setattr__(self, "values", tuple(v))

    @cached_property
    def _interp(self):
        return PchipInterpolator(np.asarray(self.times), np.asarray(self.values))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.times[-1] * (1 + 1e-12)):
            raise ValidationError(f"t outside tabulated range [0, {self.times[-1]}]")
        return np.clip(self._interp(t), 0.0, 1.0)

    def to_json(self):
        return {"kind": "tabulated", "times": list(self.times), "values": list(self.values)}


SFunction = TanhS | RationalFromSchedule | TabulatedS


def s_function_from_json(data: dict) -> SFunction:
    kind = data.get("kind")
    if kind == "tanh":
        return TanhS()
    if kind == "rational_from_schedule":
        return RationalFromSchedule(Schedule.from_json(data["schedule"]))
    if kind == "tabulated":
        return TabulatedS(times=tuple(data["times"]), values=tuple(data["values"]))
    raise ValidationError(f"unknown s kind {kind!r}")


def t_tilde(s_fn, t: float) -> float:
    """Reparameterized clock int_0^t s(u) du; closed form for TanhS."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if isinstance(s_fn, TanhS):
        return float(s_fn.t_tilde_exact(t))
    res = adaptive_integrate(
        lambda x: np.asarray(s_fn(x), dtype=float),
        np.linspace(0.0, t, 65),
        abs_tol=1e-12,
    )
    return res.value


def gamma_of_ttilde(s_fn, t: float) -> float:
    """(1 - s(t))/s(t); the field the s-anneal realizes on the t_tilde clock."""
    s = float(s_fn(t))
    if s <= 0.0:
        raise ValidationError(f"annealing not started: s({t:g}) = 0")
    return (1.0 - s) / s


def s_from_schedule(schedule: Schedule, t_tilde_value, *, prefactor: float = 1.0):
    """s realizing Gamma(t_tilde) = prefactor * t_tilde^(-g(t_tilde)):
    s = 1/(1 + prefactor * t_tilde^(-g))."""
    tt = np.asarray(t_tilde_value, dtype=float)
    if np.any(tt <= 0):
        raise ValidationError("t_tilde must be positive")
    if not (prefactor > 0):
        raise ValidationError(f"prefactor must be positive, got {prefactor}")
    u = schedule.delta * tt + schedule.c
    g = schedule.g.value(tt, u)
    out = 1.0 / (1.0 + prefactor * np.power(tt, -g))
    return scalar_or_array(out, t_tilde_value)


def s_asymptotic(schedule: Schedule, t_tilde_value, *, prefactor: float = 1.0):
    """Large-clock form 1 - prefactor * t_tilde^(-g); differs from the exact
    s by at most (prefactor * t_tilde^(-g))^2 once that quantity is < 1."""
    tt = np.asarray(t_tilde_value, dtype=float)
    if np.any(tt <= 0):
        raise ValidationError("t_tilde must be positive")
    u = schedule.delta * tt + schedule.c
    g = schedule.g.value(tt, u)
    out = 1.0 - prefactor * np.power(tt, -g)
    return scalar_or_array(out, t_tilde_value)


@dataclass(frozen=True, eq=False)
class ReparamMap:
    """Sampled (t, s, t_tilde) triples with monotone inverse lookup."""

    times: np.ndarray = field(repr=False)
    s_values: np.ndarray = field(repr=False)
    t_tilde_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.times[0] != 0.0 or self.t_tilde_values[0] != 0.0:
            raise ValidationError("reparam map must start at t = t_tilde = 0")
        if np.any(np.diff(self.t_tilde_values) < 0):
            raise ValidationError("t_tilde must be nondecreasing")
        active = self.s_values[:-1] > 0
        if np.any(np.diff(self.t_tilde_values)[active] <= 0):
            raise ValidationError("t_tilde must strictly increase wherever s > 0")

    def t_of_ttilde(self, tt):
        return np.interp(tt, self.t_tilde_values, self.times)

    def ttilde_of_t(self, t):
        return np.interp(t, self.times, self.t_tilde_values)

    def to_json(self) -> dict:
        return {
            "times": [float(v) for v in self.times],
            "s": [float(v) for v in self.s_values],
            "t_tilde": [float(v) for v in self.t_tilde_values],
        }

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "s", "t_tilde", "gamma"])
            for t, s, tt in zip(self.times, self.s_values, self.t_tilde_values):
                gam = (1.0 - s) / s if s > 0 else math.inf
                writer.writerow([repr(float(t)), repr(float(s)), repr(float(tt)), repr(float(gam))])


def build_reparam_map(s_fn, t_grid) -> ReparamMap:
    """Cumulative clock integral at every grid point, from adaptive panels
    that start as one Kronrod panel per cell (s is smooth and slowly varying;
    per-cell error is far below the map's interpolation error)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or t_grid[0] != 0.0:
        raise ValidationError("t_grid must be 1-d, start at 0, and have >= 2 points")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    s_vals = np.asarray(s_fn(t_grid), dtype=float)
    if isinstance(s_fn, TanhS):
        tt = np.asarray(s_fn.t_tilde_exact(t_grid), dtype=float)
    else:
        s_of = lambda x: np.asarray(s_fn(x), dtype=float)
        res = adaptive_integrate(s_of, t_grid, abs_tol=1e-12)
        tt = np.concatenate([[0.0], cumulative_at(s_of, res, t_grid[1:])])
    return ReparamMap(times=t_grid, s_values=s_vals, t_tilde_values=tt)
