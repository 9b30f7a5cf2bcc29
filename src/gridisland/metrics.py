"""Objective metrics for islanding strategies.

The relaxed metrics measure how far a target bus vector v lies from the
flows the kept lines S can carry: the squared distance from v to the
column span of the incidence submatrix A(S).  That span is exactly the
set of bus vectors that sum to zero over every connected component of
(V, S), for any S, cycles included.  The distance therefore has the
partition closed form

    dist(v, S)^2 = sum over components C of (V, S) of (sum_{b in C} v_b)^2 / |C|.

f(S) is this distance for the net load b0 and h_i(S) for the coherency
target c^i.  The objective J(S) = xi f(S) + sum_i h_i(S) is the same sum
over the rows T_b of the weighted target block
T = [sqrt(xi) b0, c^1, ..., c^n]:

    J(S) = sum_C ||sum_{b in C} T_b||^2 / |C|.

Joining components a and b, with sizes n_a, n_b and target means mu_a,
mu_b, lowers J by n_a n_b / (n_a + n_b) ||mu_a - mu_b||^2.  A line inside
one component lowers it by exactly 0.  IncrementalEvaluator keeps the
component labels and the per-component target sums and sizes, so every
J-decrease is read from them.  Lines that make the same merge get
bitwise-equal decreases, so the greedy's tie rule (equal J-decrease,
then the larger f-decrease, then the lowest canonical line index) needs
no tolerance.

Unit convention: b0 is in MW, so f is in MW^2 and sqrt(f) is the
imbalance in MW; the coherency targets c^i are unitless.  This mix makes
trade-off weights xi of order 1e-7..1e-5 balance the two objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherency import CoherencyModel
from .netcase import OperatingPoint, PowerNetwork


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class MetricContext:
    net: PowerNetwork
    b0: np.ndarray         # MW net load vector d0 - g0 (balanced)
    L: np.ndarray          # n x r coherency matrix
    xi: float
    refs: tuple[int, ...]  # distinct generator indices, one per island

    @cached_property
    def ref_pos(self) -> np.ndarray:
        """Bus positions of the reference generators, island order."""
        return self.net.gen_positions()[list(self.refs)]

    @cached_property
    def c(self) -> np.ndarray:
        """m x n coherency targets c^i = e_{u_i} - sum_k L_ik e_{ref_k}."""
        c = np.zeros((self.net.m, self.net.n))
        c[self.net.gen_positions(), np.arange(self.net.n)] = 1.0
        for k, sp in enumerate(self.ref_pos):
            c[sp] -= self.L[:, k]
        return c

    @cached_property
    def targets(self) -> np.ndarray:
        """Weighted target block [sqrt(xi) * b0, c^1, ..., c^n]."""
        return np.column_stack([np.sqrt(self.xi) * self.b0, self.c])

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Bus positions of the two endpoints of every line, canonical order."""
        pos = self.net.bus_pos
        branches = self.net.branches
        return (np.array([pos[br.i] for br in branches], dtype=np.intp),
                np.array([pos[br.j] for br in branches], dtype=np.intp))


def build_context(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    xi: float,
) -> MetricContext:
    if xi < 0:
        raise MetricError("trade-off weight must be nonnegative")
    refs = tuple(model.refs)
    if len(set(refs)) != len(refs):
        raise MetricError("reference generators must be distinct")
    return MetricContext(net=net, b0=op.injections, L=model.L, xi=xi, refs=refs)


def component_labels(ctx: MetricContext, S) -> np.ndarray:
    """Bus position -> smallest bus position in its component of (V, S)."""
    parent = list(range(ctx.net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ei, ej = (x.tolist() for x in ctx.ends)
    for e in S:
        a, b = find(ei[e]), find(ej[e])
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return np.array([find(b) for b in range(ctx.net.m)], dtype=np.intp)


def _distances(labels: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared distance of every column of V to the zero-sum-per-component span."""
    sums = np.zeros((len(labels), V.shape[1]))
    np.add.at(sums, labels, V)
    sizes = np.bincount(labels, minlength=len(labels))
    keep = sizes > 0
    return (sums[keep] ** 2 / sizes[keep, None]).sum(axis=0)


def _merge_gains(sa, na, sb, nb) -> np.ndarray:
    """Per row, J's decrease n_a n_b / (n_a + n_b) ||mu_a - mu_b||^2."""
    d = sa / na[:, None] - sb / nb[:, None]
    return na * nb / (na + nb) * (d * d).sum(axis=1)


class IncrementalEvaluator:
    """Partition state of one search over edge subsets.

    Holds the kept lines S, the component label of every bus (the
    smallest bus position in its component), and per component the sum
    of the target rows T, the sum of b0 and the size.  Only the entries
    at current labels are meaningful.  gains() reads the J-decrease of
    every candidate line from these sums in one vectorized pass and
    add() merges two components; on a forest, swap_J() reads the J of
    every swap out of one kept bridge and cut() removes it.  Owned by
    one logical search; the context itself is immutable and shared.
    """

    def __init__(self, ctx: MetricContext):
        self.ctx = ctx
        self.T = ctx.targets          # m x (n+1), weighted
        self.base = float((self.T * self.T).sum())  # J(empty set)
        self.labels = np.arange(ctx.net.m)
        self.sums = self.T.copy()
        self.b0_sums = ctx.b0.astype(float)
        self.sizes = np.ones(ctx.net.m, dtype=np.intp)
        self.S: list[int] = []

    def J(self) -> float:
        keep = self.sizes > 0
        return float(
            ((self.sums[keep] ** 2).sum(axis=1) / self.sizes[keep]).sum())

    def gains(self, candidates) -> np.ndarray:
        """J(S) - J(S + {e}) for each candidate edge, vectorized."""
        a, b = (self.labels[x[candidates]] for x in self.ctx.ends)
        return _merge_gains(self.sums[a], self.sizes[a],
                            self.sums[b], self.sizes[b])

    def f_gains(self, candidates) -> np.ndarray:
        """f(S) - f(S + {e}) for each candidate edge, vectorized."""
        a, b = (self.labels[x[candidates]] for x in self.ctx.ends)
        na, nb = self.sizes[a], self.sizes[b]
        d = self.b0_sums[a] / na - self.b0_sums[b] / nb
        return na * nb / (na + nb) * d * d

    def swap_J(self, piece, candidates, current: float) -> np.ndarray:
        """J(S - v + e) per candidate e, given current = J(S), where the kept
        bridge v cuts the buses `piece` (ascending) off and e has one end there."""
        own = self.labels[piece[0]]
        p_sum, n_p = self.T[piece].sum(axis=0), len(piece)
        rest_sum, n_rest = self.sums[own] - p_sum, self.sizes[own] - n_p
        cut_J = (current - self.sums[own] @ self.sums[own] / self.sizes[own]
                 + p_sum @ p_sum / n_p + rest_sum @ rest_sum / n_rest)
        a, b = (self.labels[x[candidates]] for x in self.ctx.ends)
        far = np.where(a == own, b, a)
        sums, sizes = self.sums[far], self.sizes[far]
        sums[far == own], sizes[far == own] = rest_sum, n_rest
        return cut_J - _merge_gains(p_sum[None], np.array([n_p]), sums, sizes)

    def add(self, e: int) -> None:
        a, b = (int(self.labels[x[e]]) for x in self.ctx.ends)
        if a != b:
            keep, gone = min(a, b), max(a, b)
            self.labels[self.labels == gone] = keep
            for arr in (self.sums, self.b0_sums, self.sizes):
                arr[keep] += arr[gone]
                arr[gone] = 0
        self.S.append(e)

    def cut(self, v: int, piece) -> None:
        """Remove the kept bridge v that cuts the buses `piece` (ascending)
        off their component; both sides are summed afresh in bus order."""
        rest = self.labels == self.labels[piece[0]]
        rest[piece] = False
        for part in (piece, np.flatnonzero(rest)):
            lab = int(part[0])
            self.labels[part] = lab
            self.sums[lab] = self.T[part].sum(axis=0)
            self.b0_sums[lab] = self.ctx.b0[part].sum()
            self.sizes[lab] = len(part)
        self.S.remove(v)

    def fork_without(self, v: int) -> "IncrementalEvaluator":
        """A new evaluator for S minus every copy of edge v.  No run calls
        it; it stays while perfbench's span table still names it."""
        other = IncrementalEvaluator(self.ctx)
        for e in self.S:
            if e != v:
                other.add(e)
        return other


def f(ctx: MetricContext, S) -> float:
    return float(_distances(component_labels(ctx, S), ctx.b0[:, None])[0])


def J(ctx: MetricContext, S) -> float:
    return float(_distances(component_labels(ctx, S), ctx.targets).sum())


def island_labels(ctx: MetricContext, S) -> np.ndarray | None:
    """Bus -> island index if S induces a valid r-island partition, else None.

    S is a forest exactly when m minus its number of components is |S|.
    The partition is valid when every component holds exactly one
    reference; island k holds the k-th reference of ctx.refs.
    """
    S = list(S)
    labels = component_labels(ctx, S)
    n_parts = np.count_nonzero(labels == np.arange(ctx.net.m))
    ref_roots = labels[ctx.ref_pos]
    if (ctx.net.m - n_parts != len(S) or n_parts != len(ref_roots)
            or len(set(ref_roots.tolist())) != len(ref_roots)):
        return None
    island = np.empty(ctx.net.m, dtype=int)
    island[ref_roots] = np.arange(len(ref_roots))
    return island[labels]


def noncoherency(L: np.ndarray, L_g: np.ndarray) -> float:
    """Squared Frobenius distance between coherency and partition matrices."""
    if L.shape != L_g.shape:
        raise MetricError("shape mismatch between L and L_g")
    return float(np.linalg.norm(L - L_g, "fro") ** 2)

