"""Instantaneous spectra of H(Gamma) = H_Ising - Gamma * sum_i sigma^x_i.

`diagonalize` is the one eigensolve: the gap curve, the Gamma scan, the
initial state and every record point of `dynamics.evolve` go through it. It
returns the lowest pair (eps0, eps1) and the phase-fixed ground vector. Up to
MAX_SPINS_DENSE = 8 spins it makes one LAPACK dsyevr call for the lowest two
eigenpairs of the dense matrix; from 9 up to 14 it runs one real Lanczos
routine (ARPACK eigsh on a real LinearOperator over apply_hamiltonian,
started from the uniform vector, which overlaps the positive Perron ground
state). The only other eigensolve is the step kernel of the dense propagator
in `dynamics` (all eigenpairs, up to 7 spins).

The cap is a measured crossover (one OpenBLAS thread, 2-vCPU Xeon VM, seed 7,
50 Gamma in [1e-3, 1.5], lowest pair without vectors, ms per solve, dense
against Lanczos): N = 8 4.0 against 4.9, N = 9 18.9 against 4.8, N = 10 143
against 6.4. Dense eigh grows as 8^N, a Lanczos solve as 2^N times a few
dozen H applies.

Also hosts the certified gap lower bound, GapEnvelope: the gap is
2N-Lipschitz in Gamma, so Gamma-sorted samples bound it from below between
them. It serves the measured gap curve and the tail constant A of
Delta >= A Gamma^N. The fit of A(N) = a sqrt(N) exp(-b N) across sizes, from
per-instance grid minima, is empirical and certifies nothing.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dsyevr, dsyevr_lwork
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
# Refinement leaves each envelope floor, and A, within this fraction of the
# samples they are built from (see GapEnvelope).
ENVELOPE_EPS = 0.01
# Each sampled gap is lowered by SOLVE_ALLOWANCE * (||E||_inf + N Gamma)
# before it enters an envelope (see GapEnvelope).
SOLVE_ALLOWANCE = 1e-9
# Refinement passes before an envelope stops tightening.
MAX_REFINE_PASSES = 64


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


@dataclass(frozen=True, eq=False)
class GapEnvelope:
    """Certified lower bound on the gap Delta(Gamma) from Gamma-sorted samples.

    ||dH/dGamma|| = N, so by Weyl's inequality the gap is 2N-Lipschitz. On
    [Gamma_a, Gamma_b] it is at least the mean of the cones from both ends,
    the floor (lo_a + lo_b)/2 - N (Gamma_b - Gamma_a). The first sample is
    the classical gap at Gamma = 0 (no solve); its interval serves A only,
    and a curve reads the cone of the next sample there.

    Each lo is a computed gap less SOLVE_ALLOWANCE (||E||_inf + N Gamma), a
    multiple of a bound on ||H||. Dense dsyevr is backward stable to about
    d 1e-16 ||H||; ARPACK stops at Ritz residuals ||H v - theta v|| below
    1e-12 |theta|, and a symmetric H has an eigenvalue within the residual
    of theta; the classical energies round at about 1e-16 sum |J|. The
    allowance exceeds each by 500x or more. It assumes the solver returns
    the lowest pair: dense always does, and Lanczos starts from a vector
    overlapping the Perron ground state.
    """

    diag: DiagonalIsing = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    lows: np.ndarray = field(repr=False)

    @property
    def floors(self) -> np.ndarray:
        return 0.5 * (self.lows[:-1] + self.lows[1:]) - self.diag.n_spins * np.diff(self.gammas)

    def __call__(self, gamma) -> np.ndarray:
        """The floor of the interval holding Gamma; below the first positive
        sample and above the top one, that sample's cone."""
        g, lo, top = np.asarray(gamma, dtype=float), self.gammas[1], self.gammas[-1]
        i = np.clip(np.searchsorted(self.gammas, g, side="right") - 1, 0, self.gammas.size - 2)
        cone = 2.0 * self.diag.n_spins * np.abs(g - np.clip(g, lo, top))
        ends = [self.lows[1] - cone, self.lows[-1] - cone]
        return np.select([g <= lo, g > top], ends, self.floors[i])

    def slack(self) -> float:
        """Largest relative shortfall of a floor below the lower of its two
        samples, over every interval but the first, from Gamma = 0."""
        return float(np.max(self._shortfalls()[1:], initial=0.0))

    def _shortfalls(self) -> np.ndarray:
        return 1.0 - self.floors / np.minimum(self.lows[:-1], self.lows[1:])

    def _with_samples(self, gammas) -> GapEnvelope:
        gammas = np.asarray(gammas, dtype=float)
        gaps = [diagonalize(self.diag, float(g), want_vector=False).gap for g in gammas]
        at = np.searchsorted(self.gammas, gammas)
        lows = np.insert(self.lows, at, np.array(gaps) - _allowance(self.diag, gammas))
        return replace(self, gammas=np.insert(self.gammas, at, gammas), lows=lows)

    def tightened(self) -> GapEnvelope:
        """Bisect, one solve each, every interval but the first whose floor is
        more than ENVELOPE_EPS below both its samples, until none is."""
        env = self
        for _ in range(MAX_REFINE_PASSES):
            k = 1 + np.flatnonzero(env._shortfalls()[1:] > ENVELOPE_EPS)
            if k.size == 0:
                break
            env = env._with_samples(0.5 * (env.gammas[k] + env.gammas[k + 1]))
        if np.any(env.floors[1:] <= 0):
            raise GapAnomalyError("gap envelope nonpositive between solved samples")
        return env

    def gap_constant(self, gamma_max: float) -> tuple[GapEnvelope, float, float]:
        """(refined envelope, A, slack of A), with A Gamma^N below the
        envelope on (0, gamma_max].

        A is the least floor / Gamma_b^N over the intervals there. The
        interval attaining it is bisected until A is within ENVELOPE_EPS of
        the least sampled lo / Gamma^N; the slack is that relative distance.
        """
        env = self if gamma_max <= self.gammas[-1] else self._with_samples([gamma_max])
        for _ in range(MAX_REFINE_PASSES):
            top = int(np.searchsorted(env.gammas, gamma_max)) + 1
            power = env.gammas[1:top] ** self.diag.n_spins
            ratios, sampled = env.floors[: top - 1] / power, np.min(env.lows[1:top] / power)
            k = int(np.argmin(ratios))
            if ratios[k] >= (1.0 - ENVELOPE_EPS) * sampled:
                break
            env = env._with_samples([0.5 * (env.gammas[k] + env.gammas[k + 1])])
        if not ratios[k] > 0:
            raise GapAnomalyError(f"no positive A with Delta >= A Gamma^N below {gamma_max:g}")
        return env, float(ratios[k]), float(1.0 - ratios[k] / sampled)


def _allowance(diag: DiagonalIsing, gamma) -> np.ndarray:
    return SOLVE_ALLOWANCE * (np.abs(diag.energies).max() + diag.n_spins * np.asarray(gamma))


def gap_envelope(diag: DiagonalIsing, snapshots: Sequence[SpectrumSnapshot] = ()) -> GapEnvelope:
    """The envelope through Gamma = 0 and the snapshots' gaps."""
    check_ising_nondegenerate(diag)
    e0, e1 = np.partition(diag.energies, 1)[:2]
    by_gamma = {0.0: float(e1 - e0), **{s.gamma_value: s.gap for s in snapshots}}
    gammas = np.array(sorted(by_gamma))
    gaps = np.array([by_gamma[g] for g in gammas])
    return GapEnvelope(diag=diag, gammas=gammas, lows=gaps - _allowance(diag, gammas))


@dataclass(frozen=True, eq=False)
class GapCurve:
    """Certified lower bound on the gap along a schedule over [0, t_max]: the
    envelope through the gaps at the log-clock nodes (`snapshots`), read at
    Gamma(t). It jumps where Gamma(t) crosses a sample's Gamma: at the nodes
    when Gamma is monotone, so the bound puts quadrature panel edges there.
    """

    schedule: Schedule = field(repr=False)
    t_max: float
    envelope: GapEnvelope = field(repr=False)
    snapshots: tuple[SpectrumSnapshot, ...] = field(repr=False)
    t_min_gap: float
    min_gap: float
    n_evaluations: int

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -1e-9) or np.any(t_arr > self.t_max * (1 + 1e-9)):
            raise ValidationError(f"t outside measured range [0, {self.t_max}]")
        gamma = self.schedule.gamma(np.clip(t_arr, 0.0, self.t_max))
        return scalar_or_array(self.envelope(gamma), t_arr)


def build_gap_curve(problem: IsingProblem, schedule: Schedule, t_max: float) -> GapCurve:
    """Solve the gap at GAP_CURVE_NODES log-clock nodes and tighten their
    envelope on every interval but the first, from Gamma = 0 to the lowest
    node, which only A reads. n_evaluations counts the solves: the nodes
    plus the refinement's."""
    t_nodes = log_clock_edges(schedule.delta, schedule.c, t_max, GAP_CURVE_NODES - 1)
    snapshots = tuple(gap_profile(problem, schedule, t_nodes))
    seeded = gap_envelope(build_diagonal(problem), snapshots)
    envelope = seeded.tightened()
    j = int(np.argmin([s.gap for s in snapshots]))
    return GapCurve(
        schedule=schedule, t_max=float(t_max), envelope=envelope, snapshots=snapshots,
        t_min_gap=snapshots[j].t, min_gap=snapshots[j].gap,
        n_evaluations=len(snapshots) + envelope.gammas.size - seeded.gammas.size,
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
