"""Linearized electromechanical model and generator coherency.

Builds the classical swing linearization around the DC operating point,
extracts the slowest electromechanical modes and produces the coherency
matrix that scores every generator against each reference generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcase import OperatingPoint, PowerNetwork, _is_index, _reduce


class ModelError(Exception):
    """Degenerate dynamic model (singular reduction or reference rows)."""


@dataclass(frozen=True, eq=False)
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
    return (op.angles[net.gen_pos]
            + net.xd_prime * (net.pg / net.base_mva) / net.v)


def kron_reduce(net: PowerNetwork) -> tuple[OperatingPoint, np.ndarray]:
    """The DC operating point and the network reduced to the generator
    buses, from the one elimination of `netcase._reduce`.

    Every non-generator bus of the lossless network (weights 1/x per
    line) is eliminated by star-mesh transforms, which give the Schur
    complement of the susceptance Laplacian.  Y holds the reduced
    network's couplings: Y_ij >= 0 is the effective susceptance between
    generators i and j, and the diagonal is zero.  The elimination
    records its updates to the generator pairs as one list of stars (a
    line between two generator buses is a star of two whose one update
    is its weight); each coupling is summed in one cell in that order,
    kept lines first and then fills in elimination order, and mirrored,
    so Y is exactly symmetric.  xd' enters the model only through the
    internal rotor angles, not this reduction.  A fault of the
    elimination or of the operating point is a CaseError, and it
    outranks two generators on one bus, which is a ModelError.
    """
    op, Y = _reduce(net)
    if len(Y) != net.n:
        raise ModelError("two generators share a bus")
    return op, Y


def build_K(net: PowerNetwork, op: OperatingPoint, Y: np.ndarray) -> np.ndarray:
    """Coupling matrix: K_ij = V_i V_j Y_ij cos(delta_i - delta_j), i != j,
    and K_ii = -sum_j K_ij.

    Multiplied in place in that order, the cosine taken and multiplied in
    only where Y_ij != 0, so an uncoupled K_ij is V_i V_j 0 = +0.0; at
    most two n x n arrays and one n x n mask are live besides Y.  K is
    exactly symmetric as Y is, and Y's zero diagonal leaves K's zero
    until the row sums fill it.  A non-finite internal angle is a
    ModelError: the mask would skip it wherever Y is zero.
    """
    n = net.n
    if Y.shape != (n, n):
        raise ModelError("reduced susceptance has wrong dimensions")
    delta = internal_angles(net, op)
    if not np.isfinite(delta).all():
        raise ModelError("internal rotor angles are not finite: an input is "
                         "too large for double precision")
    K = np.multiply.outer(net.v, net.v)
    K *= Y
    coupled = Y != 0
    cos = np.subtract.outer(delta, delta)
    np.cos(cos, out=cos, where=coupled)
    np.multiply(K, cos, out=K, where=coupled)
    np.fill_diagonal(K, -K.sum(axis=1))
    return K


def inertia(net: PowerNetwork) -> np.ndarray:
    """Generator inertias 2 H_i / omega0: the diagonal of the inertia matrix."""
    return 2.0 * net.inertia / net.base_freq


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
    # an infinite inertia scales its row and column of the copy, and its
    # row of U, to zero; the copy would then pass the finiteness check
    if not np.isfinite(m).all():
        raise ModelError("machine inertias are not finite: an input is too "
                         "large for double precision")
    d = np.sqrt(m)
    Ks = np.outer(d, d)
    np.divide(K, Ks, out=Ks)
    # eigh fails on, or returns NaN for, a matrix holding inf; checked
    # first, since a NaN in K fails the symmetry test too (NaN != NaN)
    if not np.isfinite(Ks).all():
        raise ModelError("coupling matrix is not finite: an input is too "
                         "large for double precision")
    if not np.array_equal(K, K.T):
        raise ModelError("coupling matrix is not exactly symmetric")
    vals, vecs = np.linalg.eigh(Ks)
    # stable, so the order is (|lambda|, lambda, index)
    pick = np.lexsort((vals, np.abs(vals)))[:r]
    U = vecs[:, pick] / d[:, None]
    return vals[pick], U


def coherency_matrix(U: np.ndarray, refs) -> np.ndarray:
    """L = U U_1^{-1}, where U_1 stacks the reference generators' rows."""
    refs = list(refs)
    U1 = U[refs, :]
    if np.linalg.cond(U1) > 1e12:
        raise ModelError("reference rows dependent")
    return np.linalg.solve(U1.T, U.T).T


def check_references(refs, n: int) -> None:
    """The one rule for a reference list: distinct generator indices,
    integers in [0, n); a float, a bool, a negative index or a repeat is
    refused."""
    refs = list(refs)
    if (not all(_is_index(k, n) for k in refs)
            or len(set(refs)) != len(refs)):
        raise ModelError("references must be distinct generator indices "
                         f"in [0, {n}), got {refs}")


def build_model(net: PowerNetwork, op: OperatingPoint, refs) -> CoherencyModel:
    """The model whose r = len(refs) islands are each anchored by one
    reference; refs must pass `check_references`."""
    refs = tuple(refs)
    check_references(refs, net.n)
    K = build_K(net, op, kron_reduce(net)[1])
    M = inertia(net)
    sigma, U = slow_modes(M, K, len(refs))
    L = coherency_matrix(U, refs)
    return CoherencyModel(M=M, K=K, sigma_r=sigma, U=U, L=L, refs=refs)
