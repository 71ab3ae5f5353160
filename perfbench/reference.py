"""Independent excitation reference: dense piecewise-exact exponentials.

The benchmark checks the program's final excitation against this propagator.
It shares no code with ``annealbound``: it rebuilds the cost diagonal from the
coupling terms written to ``problem.json``, the driver from bit flips, and
Gamma(t) = (delta*t + c)^(-g0) from ``schedule.json`` (constant g only).

Each step multiplies by exp(-i H(t_mid) dt) computed exactly from a batched
eigendecomposition, so the only error is the midpoint sampling of the time
dependence, which is second order in dt. The step is halved until two
successive Richardson extrapolations agree to ``RTOL``.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 16
CHUNK = 2048
# Coarsest step (the program's default fixed step), convergence tolerance of
# successive Richardson extrapolations, and the most halvings tried.
DT0 = 0.5
RTOL = 1e-4
MAX_HALVINGS = 7


def cost_energies(n_spins: int, terms) -> np.ndarray:
    """E(z) = -sum_terms J prod_{i in sites} s_i(z), bit value 0 -> s = +1."""
    z = np.arange(1 << n_spins)
    energies = np.zeros(z.size)
    for sites, j in terms:
        signs = np.ones(z.size)
        for i in sites:
            signs = signs * (1.0 - 2.0 * ((z >> i) & 1))
        energies -= j * signs
    return energies


def driver(n_spins: int) -> np.ndarray:
    """Dense sum_i sigma^x_i."""
    z = np.arange(1 << n_spins)
    x = np.zeros((z.size, z.size))
    for i in range(n_spins):
        x[z, z ^ (1 << i)] += 1.0
    return x


def gamma_function(schedule: dict):
    """Gamma(t) = (delta*t + c)^(-g0) of a constant-g schedule JSON."""
    g = schedule["g"]
    if g["kind"] != "constant":
        raise ValueError(f"reference supports constant g only, got {g['kind']!r}")
    delta, c, g0 = float(schedule["delta"]), float(schedule["c"]), float(g["g0"])
    return lambda t: (delta * np.asarray(t, dtype=float) + c) ** (-g0)


def _ground(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(h)[1][:, 0]


def propagate(energies, x, gamma, t_max: float, n_steps: int) -> np.ndarray:
    """State at t_max from the ground state of H(0), n_steps midpoint steps."""
    h_cost = np.diag(energies)
    psi = _ground(h_cost - gamma(0.0) * x).astype(complex)
    dt = t_max / n_steps
    for start in range(0, n_steps, CHUNK):
        t_mid = (np.arange(start, min(n_steps, start + CHUNK)) + 0.5) * dt
        lam, vecs = np.linalg.eigh(h_cost[None] - gamma(t_mid)[:, None, None] * x[None])
        u = (vecs * np.exp(-1j * dt * lam)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        # Multiply the step unitaries pairwise, later steps on the left.
        while len(u) > 1:
            even = len(u) - len(u) % 2
            u = np.concatenate([u[1:even:2] @ u[0:even:2], u[even:]])
        psi = u[0] @ psi
    return psi / np.linalg.norm(psi)


def excitation(psi: np.ndarray, ground: np.ndarray) -> float:
    """Norm of the part of psi outside the ground state.

    Taken from the orthogonal component, not as sqrt(1 - overlap), so an
    excitation of 1e-5 keeps its digits.
    """
    return float(np.linalg.norm(psi - ground * np.vdot(ground, psi)))


def reference_excitation(problem: dict, schedule: dict, t_max: float) -> dict:
    """Converged final excitation for one (problem, schedule) pair.

    Returns the extrapolated value, the raw value at the coarsest step
    (which uses the same midpoint sampling as a fixed-step integrator at
    DT0), and the number of halvings taken.
    """
    n = int(problem["n_spins"])
    if (1 << n) > MAX_DIM:
        raise ValueError(f"reference is dense; dimension {1 << n} exceeds {MAX_DIM}")
    terms = [(entry["sites"], float(entry["j"])) for entry in problem["terms"]]
    energies = cost_energies(n, terms)
    x = driver(n)
    gamma = gamma_function(schedule)
    ground = _ground(np.diag(energies) - gamma(t_max) * x)
    n0 = max(1, math.ceil(t_max / DT0 - 1e-12))

    raw = [excitation(propagate(energies, x, gamma, t_max, n0), ground)]
    extrapolated: list[float] = []
    for k in range(1, MAX_HALVINGS + 1):
        raw.append(excitation(propagate(energies, x, gamma, t_max, n0 << k), ground))
        extrapolated.append((4.0 * raw[-1] - raw[-2]) / 3.0)
        if len(extrapolated) >= 2 and abs(extrapolated[-1] - extrapolated[-2]) <= RTOL * abs(extrapolated[-1]):
            return {"value": extrapolated[-1], "coarse": raw[0], "halvings": k}
    raise RuntimeError(
        f"reference did not converge to {RTOL:g} in {MAX_HALVINGS} halvings: {extrapolated}"
    )
