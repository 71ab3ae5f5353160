"""Slow, obviously-correct reference implementations the tests compare against.

Everything here is built from first principles (explicit kron chains, plain
finite differences, grid scans) and shares no code with the package under
test beyond the IsingProblem container.
"""

import numpy as np

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)


def site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Operator acting on one site; site 0 is the least significant bit, so it
    sits in the rightmost kron factor."""
    mat = np.eye(1)
    for j in reversed(range(n)):
        mat = np.kron(mat, op if j == site else ID2)
    return mat


def dense_hamiltonian(problem, gamma: float) -> np.ndarray:
    """H = -sum_terms J prod sigma^z - gamma sum_i sigma^x as an explicit matrix.

    Each product of sigma^z is diagonal, with diagonal the kron chain of the
    single-site diagonals (1, -1) on its sites and (1, 1) elsewhere."""
    n = problem.n_spins
    ising = np.zeros(2**n)
    for sites, j in problem.terms:
        term = np.ones(1)
        for s in reversed(range(n)):
            term = np.kron(term, np.diag(SZ) if s in sites else np.diag(ID2))
        ising -= j * term
    h = np.diag(ising)
    for i in range(n):
        h -= gamma * site_operator(SX, i, n)
    return h


def fd1(f, t: float, h: float) -> float:
    """Five-point first derivative, O(h^4)."""
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def fd2(f, t: float, h: float) -> float:
    """Five-point second derivative, O(h^4)."""
    return (
        -f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)
    ) / (12 * h * h)


def grid_max(f, grid) -> float:
    return max(float(f(x)) for x in grid)


def lowest_eigs(problem, gamma: float, k: int = 2):
    vals = np.linalg.eigvalsh(dense_hamiltonian(problem, gamma))
    return vals[:k]


def ground_state(problem, gamma: float) -> np.ndarray:
    """Unit ground vector of dense_hamiltonian, its largest entry positive."""
    vec = np.linalg.eigh(dense_hamiltonian(problem, gamma))[1][:, 0]
    return vec * np.sign(vec[np.argmax(np.abs(vec))])
