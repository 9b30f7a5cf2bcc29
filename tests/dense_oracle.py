"""Dense reference computations for the prelude, the reference
selections and the relaxed metrics.

The DC angles and the Kron reduction as dense solves of the m x m
susceptance Laplacian, which the library's sparse star-mesh elimination
is checked against.  The weighted target block
T = [sqrt(xi) b0, c^1, ..., c^n], m x (n+1), and squared distances from
its columns to the column span of the kept lines' incidence submatrix
A(S), by Gram-Schmidt orthonormalization and by the per-component sums
of T: the definitions that the library's statistics block is checked
against.  The two reference selections as the
per-candidate and per-row loops that the library's residual-norm greedy
and vectorised pivoting are checked against.  The slow modes from the
dense diagonal inertia matrix with an explicitly symmetrised scaling,
which the library's single scaled buffer is checked against.
"""

import numpy as np

from gridisland.metrics import MetricError
from gridisland.netcase import incidence_matrix
from gridisland.refsel import (
    NEG_INF,
    ReferenceSelection,
    SelectionError,
    log_gramian,
)

from casekit import bus_pos

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


def weighted_targets(ctx) -> np.ndarray:
    """Weighted m x (n+1) target block [sqrt(xi) * b0, c^1, ..., c^n],
    with coherency targets c^i = e_{u_i} - sum_k L_ik e_{ref_k}."""
    T = np.zeros((ctx.net.m, ctx.net.n + 1))
    T[:, 0] = np.sqrt(ctx.xi) * ctx.b0
    T[ctx.net.gen_pos, np.arange(1, ctx.net.n + 1)] = 1.0
    for k, sp in enumerate(ctx.ref_pos):
        T[sp, 1:] -= ctx.L[:, k]
    return T


def component_distances(labels: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared distance of every column of V to the vectors that sum to
    zero over each component of the bus labelling."""
    sums = np.zeros((len(labels), V.shape[1]))
    np.add.at(sums, labels, V)
    sizes = np.bincount(labels, minlength=len(labels))
    keep = sizes > 0
    return (sums[keep] ** 2 / sizes[keep, None]).sum(axis=0)


def dense_J(ctx, S) -> float:
    """xi f(S) + sum_i h_i(S) as the projection residual of the targets."""
    Q = orthonormal_span(incidence_matrix(ctx.net, S))
    T = weighted_targets(ctx)
    P = Q.T @ T
    return float(max((T * T).sum() - (P * P).sum(), 0.0))


def susceptance_laplacian(net) -> np.ndarray:
    """Dense m x m Laplacian of the line weights 1/x, by bus position."""
    W = np.zeros((net.m, net.m))
    for a, b, x in zip(*(e.tolist() for e in net.ends), net.x.tolist()):
        y = 1.0 / x
        W[a, a] += y
        W[b, b] += y
        W[a, b] -= y
        W[b, a] -= y
    return W


def dense_dc_angles(net) -> np.ndarray:
    """Bus angles solving B'theta = P with the slack balanced and at zero."""
    slack = bus_pos(net)[net.slack_bus]
    g0 = net.g0.copy()
    d0 = net.d0
    g0[slack] += d0.sum() - g0.sum()
    keep = [k for k in range(net.m) if k != slack]
    theta = np.zeros(net.m)
    theta[keep] = np.linalg.solve(
        susceptance_laplacian(net)[np.ix_(keep, keep)],
        ((g0 - d0) / net.base_mva)[keep])
    return theta


def dense_kron(net) -> np.ndarray:
    """Schur complement of the Laplacian onto the generator buses."""
    W = susceptance_laplacian(net)
    gen = net.gen_pos.tolist()
    other = [p for p in range(net.m) if p not in set(gen)]
    gb = W[np.ix_(gen, other)]
    B = W[np.ix_(gen, gen)] - gb @ np.linalg.solve(
        W[np.ix_(other, other)], gb.T)
    return 0.5 * (B + B.T)


def dense_slow_modes(M: np.ndarray, K: np.ndarray, r: int):
    """r slowest eigenpairs of (K, M) for an n x n diagonal M.

    Scales K by M^{-1/2} on both sides into a fresh array and solves its
    symmetrised copy; ties break as in `coherency.slow_modes`.
    """
    n = K.shape[0]
    d = np.sqrt(np.diag(M))
    Ks = K / np.outer(d, d)
    vals, vecs = np.linalg.eigh(0.5 * (Ks + Ks.T))
    order = sorted(range(n), key=lambda k: (abs(vals[k]), vals[k], k))
    pick = order[:r]
    return vals[pick], vecs[:, pick] / d[:, None]


def loop_select_references_greedy(U: np.ndarray, r: int) -> ReferenceSelection:
    """Greedy log-det selection by one log_gramian per candidate and round.

    The strict > keeps the smallest row index among equal gains.
    """
    n = U.shape[0]
    if r > n:
        raise SelectionError(f"cannot pick {r} references from {n} generators")
    chosen: list[int] = []
    trace: list[float] = []
    current = 0.0
    for _ in range(r):
        best_gain, best_row = NEG_INF, None
        for v in range(n):
            if v in chosen:
                continue
            gain = log_gramian(U, chosen + [v]) - current
            if gain > best_gain:
                best_gain, best_row = gain, v
        if best_row is None or best_gain == NEG_INF:
            raise SelectionError("rank-deficient eigenbasis")
        chosen.append(best_row)
        current += best_gain
        trace.append(best_gain)
    return ReferenceSelection(tuple(chosen), tuple(trace))


def loop_select_references_pivoting(U: np.ndarray, r: int) -> ReferenceSelection:
    """Complete-pivoting elimination that updates the free rows one by one."""
    n, cols = U.shape
    if r > min(n, cols):
        raise SelectionError(f"cannot pick {r} pivots from a {n}x{cols} basis")
    W = U.astype(float).copy()
    free_rows = list(range(n))
    free_cols = list(range(cols))
    refs: list[int] = []
    pivots: list[float] = []
    for _ in range(r):
        sub = np.abs(W[np.ix_(free_rows, free_cols)])
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, len(free_cols))
        piv_row, piv_col = free_rows[ri], free_cols[ci]
        piv = W[piv_row, piv_col]
        if piv == 0.0:
            raise SelectionError("zero pivot before r steps")
        refs.append(piv_row)
        pivots.append(abs(piv))
        for row in free_rows:
            if row != piv_row:
                W[row, :] -= (W[row, piv_col] / piv) * W[piv_row, :]
        free_rows.remove(piv_row)
        free_cols.remove(piv_col)
    return ReferenceSelection(tuple(refs), tuple(pivots))
