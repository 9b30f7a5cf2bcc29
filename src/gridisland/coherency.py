"""Linearized electromechanical model and generator coherency.

Builds the classical swing linearization around the DC operating point,
extracts the slowest electromechanical modes and produces the coherency
matrix that scores every generator against each reference generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcase import OperatingPoint, PowerNetwork


class ModelError(Exception):
    """Degenerate dynamic model (singular reduction or reference rows)."""


@dataclass(frozen=True)
class CoherencyModel:
    B_red: np.ndarray    # n x n reduced susceptance (Laplacian sign: off-diag <= 0)
    M: np.ndarray        # n x n diagonal inertia matrix, 2*M_i/omega0
    K: np.ndarray        # n x n coupling matrix, zero row sums
    sigma_r: np.ndarray  # r slowest eigenvalues
    U: np.ndarray        # n x r eigenbasis of the slow eigenspace
    L: np.ndarray        # n x r coherency matrix
    refs: tuple[int, ...]  # generator indices anchoring each island
    delta: np.ndarray    # internal rotor angles at the operating point


def internal_angles(net: PowerNetwork, op: OperatingPoint) -> np.ndarray:
    """Classical-model rotor angles: bus angle advanced across xd'."""
    out = np.empty(net.n)
    for k, g in enumerate(net.gens):
        theta = op.angles[net.bus_pos[g.bus]]
        out[k] = theta + g.xd_prime * (g.pg / net.base_mva) / g.v
    return out


def kron_reduce(net: PowerNetwork, op: OperatingPoint) -> np.ndarray:
    """Reduce the branch susceptance network to the generator buses.

    Every non-generator bus of the lossless network (weights 1/x per
    line) is eliminated by a Schur complement of the susceptance
    Laplacian.  The result keeps the Laplacian sign convention: the
    off-diagonal entry for generators (i, j) is minus their effective
    coupling susceptance.  xd' enters the model only through the internal
    rotor angles, not this reduction.
    """
    m = net.m
    W = np.zeros((m, m))

    def add(a: int, b: int, y: float) -> None:
        W[a, a] += y
        W[b, b] += y
        W[a, b] -= y
        W[b, a] -= y

    for br in net.branches:
        add(net.bus_pos[br.i], net.bus_pos[br.j], 1.0 / br.x)

    gen = [net.bus_pos[g.bus] for g in net.gens]
    if len(set(gen)) != len(gen):
        raise ModelError("two generators share a bus")
    other = [p for p in range(m) if p not in set(gen)]
    gg = W[np.ix_(gen, gen)]
    gb = W[np.ix_(gen, other)]
    bb = W[np.ix_(other, other)]
    try:
        B_red = gg - gb @ np.linalg.solve(bb, gb.T)
    except np.linalg.LinAlgError as exc:
        raise ModelError("singular bus block in network reduction") from exc
    return 0.5 * (B_red + B_red.T)


def build_K(net: PowerNetwork, op: OperatingPoint, B_red: np.ndarray) -> np.ndarray:
    """Coupling matrix: K_ij = -V_i V_j B_ij cos(delta_i - delta_j), i != j."""
    n = net.n
    if B_red.shape != (n, n):
        raise ModelError("reduced susceptance has wrong dimensions")
    delta = internal_angles(net, op)
    V = np.array([g.v for g in net.gens])
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                K[i, j] = -V[i] * V[j] * B_red[i, j] * np.cos(delta[i] - delta[j])
    np.fill_diagonal(K, -K.sum(axis=1))
    return 0.5 * (K + K.T)


def inertia_matrix(net: PowerNetwork) -> np.ndarray:
    return np.diag([2.0 * g.inertia / net.base_freq for g in net.gens])


def slow_modes(M: np.ndarray, K: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r smallest-magnitude eigenpairs of the pencil K v = lambda M v.

    Solved through the symmetric form M^{-1/2} K M^{-1/2}, so the spectrum
    is real.  Ties in |lambda| break toward the smaller eigenvalue, then
    the smaller index.
    """
    n = K.shape[0]
    if not 1 <= r <= n:
        raise ModelError(f"need 1 <= r <= {n}, got r={r}")
    d = np.sqrt(np.diag(M))
    Ks = K / np.outer(d, d)
    vals, vecs = np.linalg.eigh(0.5 * (Ks + Ks.T))
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
    L = np.linalg.solve(U1.T, U.T).T
    return L


def build_model(
    net: PowerNetwork, op: OperatingPoint, r: int, refs
) -> CoherencyModel:
    B_red = kron_reduce(net, op)
    K = build_K(net, op, B_red)
    M = inertia_matrix(net)
    sigma, U = slow_modes(M, K, r)
    L = coherency_matrix(U, refs)
    return CoherencyModel(
        B_red=B_red, M=M, K=K, sigma_r=sigma, U=U, L=L,
        refs=tuple(refs), delta=internal_angles(net, op),
    )
