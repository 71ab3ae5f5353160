"""Instantaneous spectra of H(Gamma) = H_Ising - Gamma * sum_i sigma^x_i.

`diagonalize` is the one eigensolve: the gap curve, the Gamma scan, the
initial state and every record point of `dynamics.evolve` go through it. It
returns the lowest pair (eps0, eps1) and the phase-fixed ground vector. Up to
MAX_SPINS_DENSE = 8 spins it makes one LAPACK dsyevr call for the lowest two
eigenpairs of the dense matrix; from 9 up to 14 it runs one real Lanczos
routine (ARPACK eigsh on a real LinearOperator over apply_hamiltonian,
started from the uniform vector, which overlaps the positive Perron ground
state). The only other eigensolve is the step kernel of the dense propagator
in `dynamics` (all eigenpairs, up to 5 spins).

The cap is a measured crossover (one OpenBLAS thread, 2-vCPU Xeon VM, seed 7,
50 Gamma in [1e-3, 1.5], lowest pair without vectors, ms per solve, dense
against Lanczos): N = 8 4.0 against 4.9, N = 9 18.9 against 4.8, N = 10 143
against 6.4. Dense eigh grows as 8^N, a Lanczos solve as 2^N times a few
dozen H applies.

Also hosts the empirical gap lower-bound machinery: the per-instance largest
constant A with Delta >= A * Gamma^N on a grid, and the least-squares fit of
A(N) = a * sqrt(N) * exp(-b N) across sizes.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevr, dsyevr_lwork
from scipy.optimize import minimize_scalar
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import (
    DegenerateGroundStateError,
    GapAnomalyError,
    SizeCapError,
    ValidationError,
)
from .ising import DiagonalIsing, IsingProblem, apply_hamiltonian, build_diagonal
from .quadrature import log_clock_edges
from .schedule import Schedule, scalar_or_array

MAX_SPINS_DENSE = 8
MAX_SPINS_ITERATIVE = 14
DEGENERACY_TOL = 1e-10
GAP_CURVE_NODES = 200


@dataclass(frozen=True)
class SpectrumSnapshot:
    t: float
    gamma_value: float
    eps0: float
    eps1: float
    gap: float
    ground_state: np.ndarray | None = field(repr=False, default=None)


@functools.cache
def transverse_field(n_spins: int) -> np.ndarray:
    """Dense, read-only X = sum_i sigma^x_i on n_spins spins, cached per size."""
    dim = 1 << n_spins
    x = np.zeros((dim, dim))
    rows = np.arange(dim)
    for i in range(n_spins):
        x[rows, rows ^ (1 << i)] = 1.0
    x.flags.writeable = False
    return x


def dense_hamiltonian(diag: DiagonalIsing, gamma_value: float) -> np.ndarray:
    """Explicit 2^N x 2^N matrix diag(E) - Gamma * X, for the dense solves."""
    n = diag.n_spins
    if n > MAX_SPINS_DENSE:
        raise SizeCapError(f"dense Hamiltonian capped at {MAX_SPINS_DENSE} spins, got {n}")
    return np.diag(diag.energies) - gamma_value * transverse_field(n)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Unit real vector with its largest-magnitude entry positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec / np.linalg.norm(vec)


def diagonalize(
    diag: DiagonalIsing,
    gamma_value: float,
    *,
    t: float = 0.0,
    want_vector: bool = True,
) -> SpectrumSnapshot:
    """Lowest pair (eps0, eps1) plus the (phase-fixed) ground vector.

    Up to MAX_SPINS_DENSE spins one LAPACK dsyevr call on the dense matrix
    (the lowest two eigenpairs only); above, matrix-free Lanczos.

    For Gamma > 0 the ground state is unique (the off-diagonal part is
    negative and irreducible), so a gap below the degeneracy tolerance there
    indicates a structural problem and raises GapAnomalyError.
    """
    if not (gamma_value >= 0) or not math.isfinite(gamma_value):
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma_value}")
    n = diag.n_spins
    if n <= MAX_SPINS_DENSE:
        vals, vecs = _dense_lowest(dense_hamiltonian(diag, gamma_value), want_vector)
    elif n <= MAX_SPINS_ITERATIVE:
        vals, vecs = _lanczos_lowest(diag, gamma_value)
    else:
        raise SizeCapError(f"diagonalization capped at {MAX_SPINS_ITERATIVE} spins, got {n}")

    eps0, eps1 = float(vals[0]), float(vals[1])
    gap = eps1 - eps0
    if gamma_value > 0 and gap < DEGENERACY_TOL:
        raise GapAnomalyError(
            f"gap {gap:.3e} below degeneracy tolerance at Gamma={gamma_value:g} > 0"
        )
    ground = _fix_phase(vecs[:, 0]) if want_vector else None
    return SpectrumSnapshot(
        t=float(t), gamma_value=float(gamma_value), eps0=eps0, eps1=eps1, gap=gap,
        ground_state=ground,
    )


def _dense_lowest(h: np.ndarray, want_vector: bool) -> tuple[np.ndarray, np.ndarray]:
    """Lowest two eigenpairs of the real symmetric C-ordered h (overwritten),
    ascending, from one direct LAPACK dsyevr call.

    Makes the call scipy.linalg.eigh(h, subset_by_index=[0, 1]) makes, with
    the same workspace sizes, without its argument checks and driver dispatch,
    which on the smallest matrices cost more than the decomposition itself.
    """
    # h.T is the same symmetric matrix in Fortran order, so LAPACK works in place.
    w, v, _, _, info = dsyevr(
        h.T, compute_v=int(want_vector), range="I", il=1, iu=2, lower=1,
        overwrite_a=1, **_dsyevr_work(h.shape[0]),
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return w[:2], v


@functools.cache
def _dsyevr_work(dim: int) -> dict[str, int]:
    """Workspace sizes of the dsyevr call at this dimension, as scipy queries them."""
    lwork, liwork, info = dsyevr_lwork(dim, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr_lwork failed with info={info}")
    return {"lwork": int(lwork), "liwork": int(liwork)}


def _lanczos_lowest(diag: DiagonalIsing, gamma_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest two eigenpairs of the real operator H(Gamma), ascending."""
    dim = 1 << diag.n_spins
    op = LinearOperator(
        (dim, dim), matvec=lambda v: apply_hamiltonian(diag, gamma_value, v), dtype=float
    )
    v0 = np.full(dim, 1.0 / math.sqrt(dim))
    vals, vecs = eigsh(op, k=2, which="SA", v0=v0, tol=1e-12)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def check_ising_nondegenerate(diag: DiagonalIsing) -> None:
    """The final (Gamma = 0) problem must have a unique ground state."""
    energies = diag.energies
    e0 = float(np.min(energies))
    hits = np.flatnonzero(energies <= e0 + DEGENERACY_TOL)
    if hits.size > 1:
        raise DegenerateGroundStateError(
            [int(z) for z in hits], e0, diag.n_spins
        )


def gap_profile(problem: IsingProblem, schedule: Schedule, t_grid) -> list[SpectrumSnapshot]:
    """Snapshots along the schedule at the given (monotone, nonnegative) times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValidationError("t_grid must be a nonempty 1-d array")
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) < 0):
        raise ValidationError("t_grid must be nonnegative and monotone nondecreasing")
    diag = build_diagonal(problem)
    check_ising_nondegenerate(diag)
    return [diagonalize(diag, schedule.gamma(t), t=t, want_vector=False) for t in t_grid]


def profile_to_csv(snapshots: Sequence[SpectrumSnapshot], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma", "eps0", "eps1", "gap"])
        for s in snapshots:
            writer.writerow(
                [repr(s.t), repr(s.gamma_value), repr(s.eps0), repr(s.eps1), repr(s.gap)]
            )


@dataclass(frozen=True)
class GapCurve:
    """Measured gap along a schedule, interpolated cubically in log(delta*t + c).

    The abscissa log(delta*t + c) spreads the late-time decay evenly and is
    finite at t = 0, unlike log t. `snapshots` holds the solved sample behind
    each entry of `x`, in the same order.
    """

    delta: float
    c: float
    t_max: float
    x: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    t_min_gap: float
    min_gap: float
    n_evaluations: int
    snapshots: tuple[SpectrumSnapshot, ...] = field(repr=False)
    _spline: CubicSpline = field(repr=False)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -1e-9) or np.any(t_arr > self.t_max * (1 + 1e-9)):
            raise ValidationError(f"t outside measured range [0, {self.t_max}]")
        x = np.log(self.delta * np.clip(t_arr, 0.0, self.t_max) + self.c)
        out = self._spline(x)
        return scalar_or_array(out, t_arr)


def build_gap_curve(
    problem: IsingProblem,
    schedule: Schedule,
    t_max: float,
) -> GapCurve:
    """Sample the gap on GAP_CURVE_NODES log-clock nodes and refine near its
    minimum.

    The refinement runs a bounded scalar minimization around the coarse-grid
    minimum and folds every evaluation into the interpolation data, so the
    spline is densest exactly where the 1/Delta^3 integrand peaks.
    """
    if not (schedule.delta > 0):
        raise ValidationError("gap curve requires delta > 0 (log-u grid)")
    if not (t_max > 0):
        raise ValidationError(f"t_max must be positive, got {t_max}")
    diag = build_diagonal(problem)
    check_ising_nondegenerate(diag)
    delta, c = schedule.delta, schedule.c

    t_nodes = log_clock_edges(delta, c, t_max, GAP_CURVE_NODES - 1)

    samples: dict[float, SpectrumSnapshot] = {}

    def gap_at(t: float) -> float:
        t = float(t)
        if t not in samples:
            samples[t] = diagonalize(diag, schedule.gamma(t), t=t, want_vector=False)
        return samples[t].gap

    gaps = np.array([gap_at(t) for t in t_nodes])
    k = int(np.argmin(gaps))

    if 0 < k < t_nodes.size - 1:
        res = minimize_scalar(
            gap_at,
            bounds=(t_nodes[k - 1], t_nodes[k + 1]),
            method="bounded",
            options={"xatol": max(1e-12, 1e-9 * (t_nodes[k + 1] - t_nodes[k - 1]))},
        )
        gap_at(float(res.x))

    ts = np.array(sorted(samples))
    gs = np.array([samples[t].gap for t in ts])
    if np.any(gs <= 0):
        bad = ts[gs <= 0][0]
        raise GapAnomalyError(f"nonpositive measured gap at t={bad:g}")
    x = np.log(delta * ts + c)
    keep = np.concatenate(([True], np.diff(x) > 1e-13))
    x, gs, ts = x[keep], gs[keep], ts[keep]
    spline = CubicSpline(x, gs)

    dense_x = np.linspace(x[0], x[-1], 4 * x.size)
    if np.any(spline(dense_x) <= 0):
        raise GapAnomalyError("gap interpolant dips nonpositive between samples")

    j = int(np.argmin(gs))
    return GapCurve(
        delta=delta, c=c, t_max=float(t_max), x=x, gaps=gs,
        t_min_gap=float(ts[j]), min_gap=float(gs[j]),
        n_evaluations=len(samples), snapshots=tuple(samples[t] for t in ts),
        _spline=spline,
    )


@dataclass(frozen=True)
class GapBoundFit:
    """Empirical constants for the lower bound Delta >= A * Gamma^N.

    a_fit, b_fit parameterize A(N) = a*sqrt(N)*exp(-b*N); A_empirical holds
    the per-instance minima of Delta/Gamma^N over the grid, per_size_A their
    minimum per N (the constants actually fitted).
    """

    a_fit: float
    b_fit: float
    A_empirical: tuple[float, ...]
    instances: tuple[dict, ...]
    per_size_A: dict[int, float]
    argmin_gamma: tuple[float, ...]
    gamma_grid: tuple[float, float, int]
    residuals: tuple[float, ...]
    underdetermined: bool

    def A_of(self, n_spins: int) -> float:
        return self.a_fit * math.sqrt(n_spins) * math.exp(-self.b_fit * n_spins)

    def to_json(self) -> dict:
        return {
            "a_fit": self.a_fit,
            "b_fit": self.b_fit,
            "A_empirical": list(self.A_empirical),
            "instances": list(self.instances),
            "per_size_A": {str(k): v for k, v in self.per_size_A.items()},
            "argmin_gamma": list(self.argmin_gamma),
            "gamma_grid": {
                "lo": self.gamma_grid[0],
                "hi": self.gamma_grid[1],
                "points": self.gamma_grid[2],
            },
            "residuals": list(self.residuals),
            "underdetermined": self.underdetermined,
        }


def instance_gap_constant(
    problem: IsingProblem, gamma_grid: np.ndarray
) -> tuple[float, float]:
    """(min over grid of Delta/Gamma^N, Gamma achieving it).

    The gap depends on the schedule only through Gamma, so scanning in Gamma
    covers every time along every schedule whose range the grid spans.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(gamma_grid <= 0):
        raise ValidationError("gamma grid must be strictly positive")
    diag = build_diagonal(problem)
    check_ising_nondegenerate(diag)
    n = problem.n_spins
    ratios = np.empty(gamma_grid.size)
    for i, gam in enumerate(gamma_grid):
        snap = diagonalize(diag, float(gam), want_vector=False)
        ratios[i] = snap.gap / gam**n
    k = int(np.argmin(ratios))
    a_emp = float(ratios[k])
    if a_emp <= 0:
        raise RuntimeError("nonpositive Delta/Gamma^N with positive gaps; internal error")
    return a_emp, float(gamma_grid[k])


def fit_gap_constants(ensemble: list[IsingProblem], gamma_grid) -> GapBoundFit:
    """Fit log A(N) - (1/2) log N = log a - b N to per-size empirical minima."""
    if not ensemble:
        raise ValidationError("ensemble must be nonempty")
    gamma_grid = np.asarray(gamma_grid, dtype=float)

    a_emps, argmins, descriptors = [], [], []
    per_size: dict[int, float] = {}
    for prob in ensemble:
        a_emp, g_at = instance_gap_constant(prob, gamma_grid)
        a_emps.append(a_emp)
        argmins.append(g_at)
        descriptors.append({"n_spins": prob.n_spins, "n_terms": len(prob.terms)})
        n = prob.n_spins
        per_size[n] = min(per_size.get(n, math.inf), a_emp)

    sizes = np.array(sorted(per_size))
    y = np.array([math.log(per_size[int(n)]) - 0.5 * math.log(n) for n in sizes])
    underdetermined = sizes.size < 3
    if sizes.size >= 2:
        # y = log a - b N, solved by linear least squares.
        coeffs, *_ = np.linalg.lstsq(
            np.column_stack([np.ones_like(y), -sizes.astype(float)]), y, rcond=None
        )
        log_a, b_fit = float(coeffs[0]), float(coeffs[1])
    else:
        log_a, b_fit = float(y[0]), 0.0
    resid = y - (log_a - b_fit * sizes)

    return GapBoundFit(
        a_fit=math.exp(log_a),
        b_fit=b_fit,
        A_empirical=tuple(a_emps),
        instances=tuple(descriptors),
        per_size_A={int(k): v for k, v in per_size.items()},
        argmin_gamma=tuple(argmins),
        gamma_grid=(float(gamma_grid.min()), float(gamma_grid.max()), int(gamma_grid.size)),
        residuals=tuple(float(r) for r in resid),
        underdetermined=underdetermined,
    )
