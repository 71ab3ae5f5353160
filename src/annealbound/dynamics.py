"""Schrodinger evolution i dpsi/dt = H(t) psi from the ground state of H(0).

Every step applies the midpoint propagator exp(-i H(t_mid) dt), and the
scheme is globally second order in dt (midpoint sampling of the time
dependence is the only approximation). Long horizons T ~ 1/delta make norm
preservation the binding requirement; step count only sets phase accuracy.

Two regimes apply the same propagator, chosen by size:

- n_spins <= DENSE_MAX_SPINS = 5: H = diag(E) - Gamma X with ||X|| = N, so
  U(Gamma) = exp(-i dt H) has ||d^k U/dGamma^k|| <= (dt N)^k. On a block of
  at most DENSE_BLOCK steps whose midpoint Gammas span a width w, U is
  interpolated through exact propagators (one LAPACK dsyevd each) at the k
  Chebyshev points of that range, k the fewest with remainder
  2 (dt N w/4)^k / k! <= INTERP_TOL = 1e-16; a block needing as many nodes as
  steps is halved, down to one step (w = 0, k = 1: the exact exponential).
  Each step is one small matrix-vector product within 1e-16 in operator norm
  (plus rounding) of exp(-i H(t_mid) dt), so n steps stay within n * 1e-16
  of exact midpoint stepping.
- larger n_spins: a Chebyshev expansion of the exponential on a fixed
  spectral envelope (Tal-Ezer & Kosloff 1984), built from matrix-free H
  applies.

In both regimes the initial state and the record-point ground states come
from `spectrum.diagonalize`: a dense lowest-pair solve up to 8 spins,
matrix-free Lanczos above.

Crossover (one OpenBLAS thread, 2-vCPU Xeon VM, 4000 steps of dt = 0.5 through
the full evolve), dense against Chebyshev: 0.24/2.35 s at N = 5, 0.67/2.90 s at
N = 6 (3.4 s with one eigendecomposition per step), 1.93/3.98 s at N = 7. So
N = 6 and 7 now favour dense; DENSE_MAX_SPINS stays 5 until re-measured.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevd
from scipy.special import jv

from .errors import ValidationError
from .ising import DiagonalIsing, IsingProblem, apply_hamiltonian, build_diagonal
from .provenance import pair_hash
from .schedule import Schedule
from .spectrum import check_ising_nondegenerate, diagonalize, transverse_field

TARGET_RECORDS = 1000
COEFF_TOL = 1e-16
# Largest n_spins propagated by dense eigendecomposition (measured crossover).
DENSE_MAX_SPINS = 5
# Operator-norm bound on each dense step's interpolation error.
INTERP_TOL = 1e-16
# Most dense steps sharing one set of Chebyshev nodes; the widest block the
# bound then allows has dt N w ~ 140, where rounding stays below 1e-13.
DENSE_BLOCK = 128


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration control.

    dt = None picks a heuristic step from the schedule's initial speed;
    record_stride = None records about TARGET_RECORDS points per run.
    """

    max_time: float
    dt: float | None = None
    record_stride: int | None = None
    norm_tolerance: float = 1e-8

    def __post_init__(self):
        if not (self.max_time > 0):
            raise ValidationError(f"max_time must be positive, got {self.max_time}")
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")
        if not (self.norm_tolerance > 0):
            raise ValidationError("norm_tolerance must be positive")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    times: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    ground_overlap_sq: np.ndarray = field(repr=False)
    excitation_norms: np.ndarray = field(repr=False)
    norm_drift: np.ndarray = field(repr=False)
    final_excitation: float
    final_state: np.ndarray = field(repr=False)
    n_steps: int
    dt: float
    propagator: str
    h_applies: int
    failed: bool
    failure_time: float | None
    failure_reason: str | None
    provenance: str


def _ground_split(psi_hat: np.ndarray, ground: np.ndarray) -> tuple[float, float]:
    """|<ground|psi_hat>|^2 and ||psi_hat - <ground|psi_hat> ground|| for a unit
    psi_hat; the latter keeps the digits sqrt(1 - |<ground|psi_hat>|^2) loses."""
    amp = np.vdot(ground, psi_hat)
    rest = psi_hat - amp * ground
    return abs(amp) ** 2, math.sqrt(np.vdot(rest, rest).real)


def excitation_norm(psi: np.ndarray, ground: np.ndarray) -> float:
    """Distance of psi/||psi|| from the ground space (see _ground_split)."""
    return _ground_split(psi / math.sqrt(np.vdot(psi, psi).real), ground)[1]


def initial_state(problem: IsingProblem, schedule: Schedule) -> np.ndarray:
    """Ground state of H(0); requires Gamma(0) > 0 and a nondegenerate final problem."""
    gamma0 = schedule.gamma(0.0)
    if not (gamma0 > 0):
        raise ValidationError(f"Gamma(0) must be positive, got {gamma0}")
    diag = build_diagonal(problem)
    check_ising_nondegenerate(diag)
    return diagonalize(diag, gamma0).ground_state.astype(complex)


def _auto_dt(schedule: Schedule, t_max: float) -> float:
    # Gamma moves fastest at t = 0 for the decaying family; resolve that
    # motion but never take fewer than 100 or more than 5e6 steps.
    speed = schedule.n_spins * abs(schedule.gamma_prime(0.0))
    dt = 0.5 if speed == 0 else min(0.5, 0.05 / speed)
    dt = min(dt, t_max / 100.0)
    return max(dt, t_max / 5e6)


def _chebyshev_coefficients(alpha: float) -> np.ndarray:
    """Series weights for exp(-i alpha x), x in [-1, 1]: J_0 and 2(-i)^k J_k."""
    k_max = int(math.ceil(alpha + 16.0 * (alpha + 1.0) ** (1.0 / 3.0) + 12.0))
    for _ in range(8):
        ks = np.arange(k_max + 1)
        bessel = jv(ks, alpha)
        cut = None
        for k in range(int(math.ceil(alpha)), k_max):
            if abs(2.0 * bessel[k]) < COEFF_TOL and abs(2.0 * bessel[k + 1]) < COEFF_TOL:
                cut = k
                break
        if cut is not None:
            coeffs = bessel[: cut + 1].astype(complex)
            coeffs[1:] *= 2.0 * (-1j) ** ks[1 : cut + 1]
            return coeffs
        k_max *= 2
    raise RuntimeError(f"Chebyshev series for alpha={alpha:g} did not truncate")


def _chebyshev_step(
    diag: DiagonalIsing,
    gamma_value: float,
    psi: np.ndarray,
    coeffs: np.ndarray,
    inv_a: float,
    b: float,
    phase: complex,
) -> np.ndarray:
    # Recursion in T_k((H - b)/a); the envelope (a, b) encloses the spectrum
    # for the whole run so the coefficients are shared across steps.
    phi_prev = psi
    out = coeffs[0] * psi
    if coeffs.size > 1:
        phi = (apply_hamiltonian(diag, gamma_value, psi) - b * psi) * inv_a
        out = out + coeffs[1] * phi
        for ck in coeffs[2:]:
            phi_next = 2.0 * inv_a * (apply_hamiltonian(diag, gamma_value, phi) - b * phi) - phi_prev
            phi_prev, phi = phi, phi_next
            out = out + ck * phi
    return phase * out


def _chebyshev_steps(
    diag: DiagonalIsing, schedule: Schedule, psi: np.ndarray, n_steps: int,
    dt: float, coeffs: np.ndarray, inv_a: float, b: float, phase: complex,
):
    for step in range(n_steps):
        psi = _chebyshev_step(
            diag, schedule.gamma((step + 0.5) * dt), psi, coeffs, inv_a, b, phase
        )
        yield psi


def _eigh_all(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a real symmetric C-ordered h (overwritten), ascending,
    from one dsyevd call without scipy.linalg.eigh's argument checks and driver
    dispatch, which on the smallest matrices cost more than the decomposition."""
    # h.T is the same symmetric matrix in Fortran order, so LAPACK works in place.
    w, v, info = dsyevd(h.T, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w, v


def _interpolation_blocks(gammas: np.ndarray, scale: float) -> list[tuple[np.ndarray, int]]:
    """(Gammas of a run of consecutive steps, k) in step order, k the fewest
    Chebyshev nodes with 2 (scale w/4)^k / k! <= INTERP_TOL on the run's
    Gamma-width w. A run that would need as many nodes as steps is halved."""
    z = scale * float(np.ptp(gammas)) / 4.0
    k, remainder = 1, 2.0 * z
    while remainder > INTERP_TOL and k < gammas.size:
        k += 1
        remainder *= z / k
    if k < gammas.size or gammas.size == 1:
        return [(gammas, k)]
    mid = gammas.size // 2
    return _interpolation_blocks(gammas[:mid], scale) + _interpolation_blocks(gammas[mid:], scale)


def _interpolation(h0: np.ndarray, driver: np.ndarray, gammas: np.ndarray, dt: float, k: int):
    """Exact propagators exp(-i dt (h0 - G driver)) at the k Chebyshev points G
    of the range of gammas, and weights with U(gammas[s]) ~ weights[s] @ props."""
    centre, half = 0.5 * (gammas.max() + gammas.min()), 0.5 * np.ptp(gammas)
    theta = (np.arange(k) + 0.5) * (np.pi / k)
    props = np.empty((k,) + h0.shape, dtype=complex)
    for j, x in enumerate(np.cos(theta)):
        w, v = _eigh_all(h0 - (centre + half * x) * driver)
        props[j] = (v * np.exp(-1j * dt * w)) @ v.T
    # Lagrange weights (2/k) sum'_m T_m(x_j) T_m(x), from the discrete
    # orthogonality of T_0..T_{k-1} at the nodes x_j (sum' halves m = 0).
    at_nodes = np.cos(np.outer(np.arange(k), theta))
    at_nodes[0] *= 0.5
    x = np.clip((gammas - centre) / half, -1.0, 1.0) if half > 0 else np.zeros_like(gammas)
    return props, (2.0 / k) * np.cos(np.outer(np.arccos(x), np.arange(k))) @ at_nodes


def _dense_steps(
    h0: np.ndarray, driver: np.ndarray, schedule: Schedule, psi: np.ndarray,
    n_steps: int, dt: float,
):
    for first in range(0, n_steps, DENSE_BLOCK):
        gammas = schedule.gamma((np.arange(first, min(first + DENSE_BLOCK, n_steps)) + 0.5) * dt)
        for part, k in _interpolation_blocks(gammas, dt * schedule.n_spins):
            props, weights = _interpolation(h0, driver, part, dt, k)
            stacked = props.reshape(-1, psi.size)
            for wt in weights:
                psi = np.dot(wt, np.dot(stacked, psi).reshape(k, -1))
                yield psi


def evolve(
    problem: IsingProblem, schedule: Schedule, config: IntegratorConfig
) -> TrajectoryRecord:
    """Propagate from the ground state of H(0) to max_time, recording overlap
    with the freshly diagonalized instantaneous ground state at record points."""
    psi = initial_state(problem, schedule)
    diag = build_diagonal(problem)

    t_max = config.max_time
    dt = config.dt if config.dt is not None else _auto_dt(schedule, t_max)
    n_steps = max(1, int(math.ceil(t_max / dt - 1e-12)))
    dt = t_max / n_steps
    stride = config.record_stride or max(1, n_steps // TARGET_RECORDS)

    if diag.n_spins <= DENSE_MAX_SPINS:
        # H(Gamma) = diag(E) - Gamma * X, as spectrum.dense_hamiltonian builds it.
        h0, driver = np.diag(diag.energies), transverse_field(diag.n_spins)
        propagator, h_applies = "dense", 0
        steps = _dense_steps(h0, driver, schedule, psi, n_steps, dt)
    else:
        # Spectral envelope over the whole run, from the largest Gamma.
        gam_hi = schedule.gamma_range(t_max)[1] * (1.0 + 1e-9)
        n = diag.n_spins
        e_lo = float(np.min(diag.energies)) - n * gam_hi
        e_hi = float(np.max(diag.energies)) + n * gam_hi
        a = 0.5 * (e_hi - e_lo) + 1e-300
        b = 0.5 * (e_hi + e_lo)
        coeffs = _chebyshev_coefficients(a * dt)
        phase = complex(np.exp(-1j * b * dt))
        propagator, h_applies = "chebyshev", n_steps * (coeffs.size - 1)
        steps = _chebyshev_steps(diag, schedule, psi, n_steps, dt, coeffs, 1.0 / a, b, phase)

    # Record the initial state, every stride-th step and the last one.
    times = np.r_[0:n_steps:stride, n_steps] * dt
    gammas = schedule.gamma(times)
    overlaps, excs, drifts = np.empty((3, times.size))
    wanted = (step % stride == 0 or step == n_steps for step in itertools.count())
    for i, psi in enumerate(itertools.compress(itertools.chain([psi], steps), wanted)):
        if not np.all(np.isfinite(psi)):
            raise RuntimeError(f"non-finite amplitude at t={times[i]:g}")
        nrm = float(np.linalg.norm(psi))
        drifts[i] = abs(nrm - 1.0)
        ground = diagonalize(diag, gammas[i], t=times[i]).ground_state
        overlaps[i], excs[i] = _ground_split(psi / nrm, ground)

    over = np.flatnonzero(drifts > config.norm_tolerance)
    failure_time = float(times[over[0]]) if over.size else None
    failure_reason = None if failure_time is None else (
        f"norm drift {drifts[over[0]]:.3e} exceeds tolerance at t={failure_time:g}"
    )
    return TrajectoryRecord(
        times=times,
        gammas=gammas,
        ground_overlap_sq=overlaps,
        excitation_norms=excs,
        norm_drift=drifts,
        final_excitation=float(excs[-1]),
        final_state=psi,
        n_steps=n_steps,
        dt=dt,
        propagator=propagator,
        h_applies=h_applies,
        failed=failure_time is not None,
        failure_time=failure_time,
        failure_reason=failure_reason,
        provenance=pair_hash(problem.to_json(), schedule.to_json()),
    )


def trajectory_to_csv(record: TrajectoryRecord, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma", "overlap_sq", "excitation_norm", "norm_drift"])
        for row in zip(
            record.times, record.gammas, record.ground_overlap_sq,
            record.excitation_norms, record.norm_drift,
        ):
            writer.writerow([repr(float(v)) for v in row])


def trajectory_sidecar(
    record: TrajectoryRecord,
    problem: IsingProblem,
    schedule: Schedule,
    config: IntegratorConfig,
) -> dict:
    return {
        "problem": problem.to_json(),
        "schedule": schedule.to_json(),
        "integrator": config.to_json(),
        "provenance": record.provenance,
        "n_steps": record.n_steps,
        "dt": record.dt,
        "propagator": record.propagator,
        "h_applies": record.h_applies,
        "final_excitation": record.final_excitation,
        "failed": record.failed,
        "failure_time": record.failure_time,
        "failure_reason": record.failure_reason,
    }
