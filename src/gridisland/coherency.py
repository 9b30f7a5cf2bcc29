"""Linearized electromechanical model and generator coherency.

Builds the classical swing linearization around the DC operating point,
extracts the slowest electromechanical modes and produces the coherency
matrix that scores every generator against each reference generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcase import OperatingPoint, PowerNetwork, _star_mesh


class ModelError(Exception):
    """Degenerate dynamic model (singular reduction or reference rows)."""


@dataclass(frozen=True)
class CoherencyModel:
    """Linearised swing model; the baseline's weights are read from |K|."""

    M: np.ndarray        # n inertias 2*H_i/omega0, the diagonal of the inertia matrix
    K: np.ndarray        # n x n coupling matrix, exactly symmetric, zero row sums
    sigma_r: np.ndarray  # r slowest eigenvalues
    U: np.ndarray        # n x r eigenbasis of the slow eigenspace
    L: np.ndarray        # n x r coherency matrix
    refs: tuple[int, ...]  # generator indices anchoring each island


def internal_angles(net: PowerNetwork, op: OperatingPoint) -> np.ndarray:
    """Classical-model rotor angles: bus angle advanced across xd'."""
    xd = np.array([g.xd_prime for g in net.gens])
    pg = np.array([g.pg for g in net.gens])
    v = np.array([g.v for g in net.gens])
    return op.angles[net.gen_pos] + xd * (pg / net.base_mva) / v


def kron_reduce(net: PowerNetwork) -> np.ndarray:
    """Reduce the branch susceptance network to the generator buses.

    Every non-generator bus of the lossless network (weights 1/x per
    line) is eliminated by the star-mesh transforms of `_star_mesh`,
    which give the Schur complement of the susceptance Laplacian.  The
    result keeps the Laplacian sign convention: the off-diagonal entry
    for generators (i, j) is minus their effective coupling susceptance,
    and the diagonal is the row's total coupling.  The elimination writes
    one value to both directions of a pair, so the result is exactly
    symmetric.  xd' enters the model only through the internal rotor
    angles, not this reduction.
    """
    gen = net.gen_pos.tolist()
    if len(set(gen)) != len(gen):
        raise ModelError("two generators share a bus")
    adj, _ = _star_mesh(net, gen, error=ModelError)
    col = {p: a for a, p in enumerate(gen)}
    B_red = np.zeros((len(gen), len(gen)))
    for a, p in enumerate(gen):
        for q, y in adj[p].items():
            B_red[a, col[q]] = -y
        B_red[a, a] = sum(adj[p].values())
    return B_red


def build_K(net: PowerNetwork, op: OperatingPoint, B_red: np.ndarray) -> np.ndarray:
    """Coupling matrix: K_ij = -V_i V_j B_ij cos(delta_i - delta_j), i != j.

    Multiplied in place in that order, so at most two n x n arrays are
    live besides B_red; K is exactly symmetric as B_red is.
    """
    n = net.n
    if B_red.shape != (n, n):
        raise ModelError("reduced susceptance has wrong dimensions")
    delta = internal_angles(net, op)
    V = np.array([g.v for g in net.gens])
    K = np.multiply.outer(-V, V)
    K *= B_red
    cos = np.subtract.outer(delta, delta)
    K *= np.cos(cos, out=cos)
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, -K.sum(axis=1))
    return K


def inertia(net: PowerNetwork) -> np.ndarray:
    """Generator inertias 2 H_i / omega0: the diagonal of the inertia matrix."""
    return np.array([2.0 * g.inertia / net.base_freq for g in net.gens])


def slow_modes(m: np.ndarray, K: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r smallest-magnitude eigenpairs of the pencil K v = lambda diag(m) v.

    Solved through the symmetric form M^{-1/2} K M^{-1/2}, so the spectrum
    is real.  K must be exactly symmetric, as `build_K`'s output always
    is; then one scaled copy of K is exactly symmetric too and goes to
    the solver as it is.  Ties in |lambda| break toward the smaller
    eigenvalue, then the smaller index.
    """
    n = K.shape[0]
    if not 1 <= r <= n:
        raise ModelError(f"need 1 <= r <= {n}, got r={r}")
    # np.outer flattens, so an n x n inertia matrix would ask for n^4 floats
    if m.shape != (n,):
        raise ModelError(f"need {n} inertias, got shape {m.shape}")
    if not np.array_equal(K, K.T):
        raise ModelError("coupling matrix is not exactly symmetric")
    d = np.sqrt(m)
    Ks = np.outer(d, d)
    np.divide(K, Ks, out=Ks)
    # eigh fails on, or returns NaN for, a matrix holding inf
    if not np.isfinite(Ks).all():
        raise ModelError("coupling matrix is not finite: an input is too "
                         "large for double precision")
    vals, vecs = np.linalg.eigh(Ks)
    order = sorted(range(n), key=lambda k: (abs(vals[k]), vals[k], k))
    pick = order[:r]
    U = vecs[:, pick] / d[:, None]
    return vals[pick], U


def coherency_matrix(U: np.ndarray, refs) -> np.ndarray:
    """L = U U_1^{-1}, where U_1 stacks the reference generators' rows."""
    refs = list(refs)
    U1 = U[refs, :]
    if np.linalg.cond(U1) > 1e12:
        raise ModelError("reference rows dependent")
    return np.linalg.solve(U1.T, U.T).T


def build_model(net: PowerNetwork, op: OperatingPoint, refs) -> CoherencyModel:
    """The model whose r = len(refs) islands are each anchored by one reference."""
    K = build_K(net, op, kron_reduce(net))
    M = inertia(net)
    sigma, U = slow_modes(M, K, len(refs))
    L = coherency_matrix(U, refs)
    return CoherencyModel(M=M, K=K, sigma_r=sigma, U=U, L=L, refs=tuple(refs))
