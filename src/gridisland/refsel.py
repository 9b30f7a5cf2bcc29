"""Reference generator selection from the slow eigenbasis.

Picks the r most linearly independent rows of the eigenbasis, either by
greedy log-det-Gramian maximization (submodular, hence a (1 - 1/e)
guarantee) or by the classic complete-pivoting elimination heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")
# a squared residual at most this times the largest squared row norm is
# rounding
RANK_FLOOR = 64 * np.finfo(float).eps


class SelectionError(Exception):
    pass


@dataclass(frozen=True)
class ReferenceSelection:
    refs: tuple[int, ...]
    gain_trace: tuple[float, ...]


def log_gramian(U: np.ndarray, T) -> float:
    """log det(U(T) U(T)'); 0 for empty T, -inf when singular."""
    rows = sorted(T)
    if not rows:
        return 0.0
    G = U[rows, :] @ U[rows, :].T
    sign, logdet = np.linalg.slogdet(G)
    if sign <= 0:
        return NEG_INF
    return logdet


def select_references_greedy(U: np.ndarray, r: int) -> ReferenceSelection:
    """Greedily add the row with maximal marginal log-det gain.

    With R the rows of U projected off the chosen rows' span,
    det G(T + v) = det G(T) * |R_v|^2, so the winner is the row of largest
    residual norm, and one rank-one update keeps R current: O(n * cols)
    per round.  Ties break toward the smallest row index.  The winner's
    gain is taken from log_gramian.  The basis is rank-deficient when the
    winner's Gram matrix is singular or its squared residual is at most
    64 eps max_i |U_i|^2, rounding's reach: the winner then lies in the
    chosen rows' span, and its computed gain is noise.
    """
    n = U.shape[0]
    if not 1 <= r <= n:
        raise SelectionError(f"cannot pick {r} references from {n} generators")
    R = U.astype(float)
    floor = RANK_FLOOR * np.einsum("ij,ij->i", R, R).max()
    chosen: list[int] = []
    trace: list[float] = []
    current = 0.0
    for _ in range(r):
        norms = np.einsum("ij,ij->i", R, R)
        norms[chosen] = NEG_INF
        v = int(np.argmax(norms))
        gain = log_gramian(U, chosen + [v]) - current
        if gain == NEG_INF or norms[v] <= floor:
            raise SelectionError("rank-deficient eigenbasis")
        chosen.append(v)
        current += gain
        trace.append(gain)
        q = R[v] / np.sqrt(norms[v])
        R -= np.outer(R @ q, q)
    return ReferenceSelection(tuple(chosen), tuple(trace))


def select_references_pivoting(U: np.ndarray, r: int) -> ReferenceSelection:
    """r steps of Gaussian elimination with complete pivoting on a copy of U.

    The pivot row of each step names one reference generator.  Each step
    takes the first maximum of |W| over the free rows and columns in
    row-major order, with the rows and columns already pivoted masked to
    -1, and updates the free rows.
    """
    n, cols = U.shape
    if not 1 <= r <= min(n, cols):
        raise SelectionError(f"cannot pick {r} pivots from a {n}x{cols} basis")
    W = U.astype(float)
    A = np.empty_like(W)
    free_rows = np.ones(n, dtype=bool)
    free_cols = np.ones(cols, dtype=bool)
    refs: list[int] = []
    pivots: list[float] = []
    for _ in range(r):
        np.abs(W, out=A)
        A[~free_rows] = -1.0
        A[:, ~free_cols] = -1.0
        piv_row, piv_col = divmod(int(np.argmax(A)), cols)
        piv = W[piv_row, piv_col]
        if piv == 0.0:
            raise SelectionError("zero pivot before r steps")
        refs.append(piv_row)
        pivots.append(abs(piv))
        free_rows[piv_row] = False
        W[free_rows] -= (W[free_rows, piv_col] / piv)[:, None] * W[piv_row]
        free_cols[piv_col] = False
    return ReferenceSelection(tuple(refs), tuple(pivots))
