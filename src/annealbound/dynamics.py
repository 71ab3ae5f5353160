"""Schrodinger evolution i dpsi/dt = H(t) psi from the ground state of H(0).

Every step applies the midpoint propagator exp(-i H(t_mid) dt), so each step
is unitary to machine precision by construction and the scheme is globally
second order in dt (midpoint sampling of the time dependence is the only
approximation). Long horizons T ~ 1/delta make structural norm preservation
the binding requirement; step count only sets phase accuracy.

Two regimes apply the same propagator, chosen by size:

- n_spins <= DENSE_MAX_SPINS = 5: exactly, through one dense real-symmetric
  eigendecomposition per step (all pairs, LAPACK dsyevd),
  psi <- V e^{-iw dt} V^T psi. At these dimensions a Chebyshev step's cost is
  the Python overhead of its ~22 matrix-free H applies, and one small
  eigendecomposition is cheaper.
- larger n_spins: a Chebyshev expansion of the exponential on a fixed
  spectral envelope (Tal-Ezer & Kosloff 1984), built from matrix-free H
  applies.

In both regimes the initial state and the record-point ground states come
from `spectrum.diagonalize`: a dense lowest-pair solve up to 8 spins,
matrix-free Lanczos above.

The crossover was measured with one OpenBLAS thread on a 2-vCPU Xeon VM,
timing 4000 steps of the full evolve: dense wins through N = 5 (1.2 s
against 2.1 s) and its O(8^N) eigendecomposition loses from N = 6 on
(3.4 s against 3.0 s).
"""

from __future__ import annotations

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
# Steps whose Hamiltonians are built at once on the dense path; small enough
# that the stack adds no measurable resident memory.
DENSE_CHUNK = 32


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


def excitation_norm(psi: np.ndarray, ground: np.ndarray) -> float:
    """Distance of psi/||psi|| from the ground space, sqrt(1 - |<ground|psi>|^2).

    Computed as ||psi_hat - <ground|psi_hat> ground||, which keeps full
    relative accuracy where 1 - |<ground|psi>|^2 would cancel.
    """
    psi = psi / math.sqrt(np.vdot(psi, psi).real)
    rest = psi - np.vdot(ground, psi) * ground
    return math.sqrt(np.vdot(rest, rest).real)


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
    """All eigenpairs of a real symmetric C-ordered matrix, ascending, from
    one direct LAPACK dsyevd call; h is overwritten.

    Skips scipy.linalg.eigh's argument checks and driver dispatch, which on
    the smallest matrices cost more than the decomposition itself.
    """
    # h.T is the same symmetric matrix in Fortran order, so LAPACK works in place.
    w, v, info = dsyevd(h.T, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w, v


def _dense_steps(
    h0: np.ndarray, driver: np.ndarray, schedule: Schedule, psi: np.ndarray,
    n_steps: int, dt: float,
):
    for start in range(0, n_steps, DENSE_CHUNK):
        t_mid = (np.arange(start, min(start + DENSE_CHUNK, n_steps)) + 0.5) * dt
        for h in h0 - schedule.gamma(t_mid)[:, None, None] * driver:
            w, v = _eigh_all(h)
            psi = v @ (np.exp(-1j * dt * w) * (v.T @ psi))
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

    times, gams, overlaps, excs, drifts = [], [], [], [], []
    failed = False
    failure_time: float | None = None
    failure_reason: str | None = None

    def record(t: float, psi: np.ndarray) -> None:
        nonlocal failed, failure_time, failure_reason
        if not np.all(np.isfinite(psi)):
            raise RuntimeError(f"non-finite amplitude at t={t:g}")
        gam = schedule.gamma(t)
        nrm = float(np.linalg.norm(psi))
        drift = abs(nrm - 1.0)
        g = diagonalize(diag, gam, t=t).ground_state
        psi_hat = psi / nrm
        times.append(t)
        gams.append(gam)
        overlaps.append(abs(np.vdot(g, psi_hat)) ** 2)
        excs.append(excitation_norm(psi_hat, g))
        drifts.append(drift)
        if drift > config.norm_tolerance and not failed:
            failed = True
            failure_time = t
            failure_reason = f"norm drift {drift:.3e} exceeds tolerance at t={t:g}"

    record(0.0, psi)
    for step, psi in enumerate(steps):
        if (step + 1) % stride == 0 or step == n_steps - 1:
            record((step + 1) * dt, psi)

    return TrajectoryRecord(
        times=np.asarray(times),
        gammas=np.asarray(gams),
        ground_overlap_sq=np.asarray(overlaps),
        excitation_norms=np.asarray(excs),
        norm_drift=np.asarray(drifts),
        final_excitation=float(excs[-1]),
        final_state=psi,
        n_steps=n_steps,
        dt=dt,
        propagator=propagator,
        h_applies=h_applies,
        failed=failed,
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
