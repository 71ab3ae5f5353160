"""Vectorized adaptive panel quadrature on Gauss-7 / Kronrod-15 pairs.

All panels are evaluated in one batched call per refinement round, which
keeps the 15-point rule cheap for integrands backed by splines and schedule
formulas. The error estimate per panel is |K15 - G7|, conservative for the
smooth power-law-tailed integrands this package produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# (node, Gauss-7 weight, Kronrod-15 weight) on [-1, 1].
_GK15 = np.array([
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
])
_NODES = _GK15[:, 0]
_W_GAUSS = _GK15[:, 1]
_W_KRONROD = _GK15[:, 2]
# Refinement stops after this many rounds, or once this many panels exist.
MAX_ROUNDS = 30
MAX_PANELS = 200_000


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    value: float
    error_estimate: float
    n_panels: int
    n_evaluations: int
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    panel_values: np.ndarray = field(repr=False)

    def diagnostics(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "n_panels": self.n_panels,
            "n_evaluations": self.n_evaluations,
        }


def _gk_batch(f, lo: np.ndarray, hi: np.ndarray):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        bad = x.ravel()[~np.isfinite(y.ravel())][0]
        raise ValidationError(f"integrand non-finite at t={bad:g}")
    kron = (y * _W_KRONROD).sum(axis=1) * half
    gauss = (y * _W_GAUSS).sum(axis=1) * half
    return kron, np.abs(kron - gauss)


def adaptive_integrate(f, edges, *, abs_tol: float = 1e-10) -> QuadratureResult:
    """Integrate f over [edges[0], edges[-1]] starting from the given panels.

    Rounds of refinement bisect every panel whose error exceeds its fair
    share of the tolerance, so the initial edges (including any caller
    checkpoints) all survive into the result.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValidationError("panel edges must be strictly increasing")

    lo, hi = edges[:-1].copy(), edges[1:].copy()
    vals, errs = _gk_batch(f, lo, hi)
    n_eval = 15 * lo.size
    for _ in range(MAX_ROUNDS):
        if errs.sum() <= abs_tol or lo.size >= MAX_PANELS:
            break
        split = errs > abs_tol / (2.0 * lo.size)
        if not split.any():
            break
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        v1, e1 = _gk_batch(f, slo, smid)
        v2, e2 = _gk_batch(f, smid, shi)
        n_eval += 30 * slo.size
        lo = np.concatenate([lo[~split], slo, smid])
        hi = np.concatenate([hi[~split], smid, shi])
        vals = np.concatenate([vals[~split], v1, v2])
        errs = np.concatenate([errs[~split], e1, e2])

    order = np.argsort(lo)
    lo, hi, vals, errs = lo[order], hi[order], vals[order], errs[order]
    return QuadratureResult(
        value=float(vals.sum()),
        error_estimate=float(errs.sum()),
        n_panels=int(lo.size),
        n_evaluations=int(n_eval),
        lo=lo,
        hi=hi,
        panel_values=vals,
    )


def cumulative_at(f, result: QuadratureResult, points) -> np.ndarray:
    """Integral from the domain start to each point, reusing the panel sums.

    Points interior to a panel get a fresh single-panel rule for the partial
    piece; points that coincide with edges need no extra evaluations.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    start, end = result.lo[0], result.hi[-1]
    if np.any(points < start - 1e-12) or np.any(points > end * (1 + 1e-12) + 1e-12):
        raise ValidationError("cumulative point outside integrated range")
    prefix = np.concatenate([[0.0], np.cumsum(result.panel_values)])
    out = np.empty(points.size)
    for i, p in enumerate(points):
        p = min(max(p, start), end)
        j = int(np.searchsorted(result.hi, p, side="left"))
        if j >= result.lo.size:
            out[i] = prefix[-1]
            continue
        partial = 0.0
        if p > result.lo[j] + 1e-300 and not np.isclose(p, result.hi[j], rtol=0, atol=1e-12 * max(1.0, abs(p))):
            v, _ = _gk_batch(f, np.array([result.lo[j]]), np.array([p]))
            partial = float(v[0])
            out[i] = prefix[j] + partial
        elif np.isclose(p, result.hi[j], rtol=0, atol=1e-12 * max(1.0, abs(p))):
            out[i] = prefix[j + 1]
        else:
            out[i] = prefix[j]
    return out


def log_clock_edges(
    delta: float, c: float, t_max: float, n_panels: int, t_lo: float = 0.0
) -> np.ndarray:
    """Panel edges from t_lo to t_max equally spaced in log(delta*t + c),
    which equidistributes the power-law decay of the bound integrands. This
    is the package's one log-clock grid: bound panels, gap-curve nodes,
    certificate grid and CLI time grids all come from it."""
    if not (delta > 0 and c > 0 and t_max > 0):
        raise ValidationError("log clock edges need delta, c, t_max > 0")
    u = np.geomspace(delta * t_lo + c, delta * t_max + c, n_panels + 1)
    t = (u - c) / delta
    t[0] = t_lo
    t[-1] = t_max
    t = np.maximum.accumulate(t)
    return np.unique(t)
