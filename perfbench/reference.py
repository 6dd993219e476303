"""Independent ground truth for the benchmark's QAOA p=1 MaxCut landscapes.

For depth-1 QAOA on an unweighted graph the expectation of every edge
term has a closed form (Wang, Hadfield, Jiang and Rieffel, "Quantum
approximate optimization algorithm for MaxCut: a fermionic view",
PRA 97, 022304, 2018).  With ``d_u = deg(u) - 1``, ``d_v = deg(v) - 1``
and ``t`` the number of triangles through the edge ``(u, v)``::

    <(1 - Z_u Z_v) / 2> = 1/2
        + 1/4 sin(4b) sin(g) (cos(g)^d_u + cos(g)^d_v)
        - 1/4 sin(2b)^2 cos(g)^(d_u + d_v - 2t) (1 - cos(2g)^t)

The program's cost is ``sum_edges Z_u Z_v / 2`` and its phase separator
is ``exp(-i g C)``, which is the paper's convention with ``g -> -g``.
The formula costs O(edges) numpy passes over the grid, so a whole
50x100 reference takes milliseconds and shares no code with the
statevector engine it checks.
"""

from __future__ import annotations

import numpy as np

NUM_QUBITS = 10
GRID_SHAPE = (50, 100)  # Table 1, p=1: (beta points, gamma points)


def build_instance(problem_seed: int):
    """``(cost_function, grid)`` for one benchmark problem instance on
    the Table-1 grid."""
    from repro.ansatz import QaoaAnsatz
    from repro.landscape import cost_function, qaoa_grid
    from repro.problems import random_3_regular_maxcut

    ansatz = QaoaAnsatz(random_3_regular_maxcut(NUM_QUBITS, seed=problem_seed), p=1)
    return cost_function(ansatz), qaoa_grid(p=1, resolution=GRID_SHAPE)


def reference_values(function, grid) -> np.ndarray:
    """Closed-form landscape of shape ``grid.shape`` for a unit-weight
    MaxCut QAOA p=1 cost function."""
    problem = function.ansatz.problem
    if function.ansatz.p != 1 or len(problem.fields):
        raise ValueError("the closed form covers field-free QAOA p=1 only")
    neighbours: dict[int, set[int]] = {q: set() for q in range(problem.num_qubits)}
    edges = []
    for i, j, weight in problem.couplings:
        if abs(weight - 0.5) > 1e-15:
            raise ValueError("the closed form covers unit-weight MaxCut only")
        edges.append((int(i), int(j)))
        neighbours[int(i)].add(int(j))
        neighbours[int(j)].add(int(i))
    beta_axis, gamma_axis = grid.axis_values
    beta = np.asarray(beta_axis, dtype=float)[:, None]
    gamma = -np.asarray(gamma_axis, dtype=float)[None, :]
    cos_g, cos_2g = np.cos(gamma), np.cos(2.0 * gamma)
    sin_term = 0.25 * np.sin(4.0 * beta) * np.sin(gamma)
    sq_term = 0.25 * np.sin(2.0 * beta) ** 2
    total = np.zeros((beta.shape[0], gamma.shape[1]))
    for u, v in edges:
        d_u, d_v = len(neighbours[u]) - 1, len(neighbours[v]) - 1
        t = len(neighbours[u] & neighbours[v])
        cut = (
            0.5
            + sin_term * (cos_g**d_u + cos_g**d_v)
            - sq_term * cos_g ** (d_u + d_v - 2 * t) * (1.0 - cos_2g**t)
        )
        total += (1.0 - 2.0 * cut) / 2.0
    return total


def max_abs_error(served: np.ndarray, reference: np.ndarray) -> float:
    """Largest absolute difference, ``inf`` on a shape mismatch or a
    non-finite served value."""
    served = np.asarray(served, dtype=float)
    if served.shape != reference.shape or not np.all(np.isfinite(served)):
        return float("inf")
    return float(np.max(np.abs(served - reference))) if served.size else 0.0
