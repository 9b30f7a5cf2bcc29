"""Dense reference computation of the relaxed metrics.

Squared distances from target vectors to the column span of the kept
lines' incidence submatrix A(S), by Gram-Schmidt orthonormalization.
This is the definition that the library's per-component closed form is
checked against.
"""

import numpy as np

from gridisland.metrics import MetricError
from gridisland.netcase import incidence_matrix

RANK_TOL = 1e-10  # relative residual below which a column adds no span


def orthonormal_span(A_S: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, dropping dependent columns."""
    m = A_S.shape[0]
    Q = np.zeros((m, 0))
    for k in range(A_S.shape[1]):
        col = A_S[:, k]
        resid = col - Q @ (Q.T @ col)
        resid -= Q @ (Q.T @ resid)  # second pass for orthogonality
        norm = np.linalg.norm(resid)
        if norm > RANK_TOL * max(np.linalg.norm(col), 1.0):
            Q = np.column_stack([Q, resid / norm])
    return Q


def subspace_distance_sq(A_S: np.ndarray, v: np.ndarray) -> float:
    """Squared distance from v to the column span of A_S."""
    if A_S.shape[0] != v.shape[0]:
        raise MetricError("dimension mismatch between matrix and vector")
    Q = orthonormal_span(A_S)
    proj = Q.T @ v
    return float(max(v @ v - proj @ proj, 0.0))


def dense_J(ctx, S) -> float:
    """xi f(S) + sum_i h_i(S) as the projection residual of the targets."""
    Q = orthonormal_span(incidence_matrix(ctx.net, S))
    T = ctx.targets
    P = Q.T @ T
    return float(max((T * T).sum() - (P * P).sum(), 0.0))
