"""Objective metrics for islanding strategies.

The relaxed metrics measure how far a target bus vector v lies from the
flows the kept lines S can carry: the squared distance from v to the
column span of the incidence submatrix A(S).  That span is exactly the
set of bus vectors that sum to zero over every connected component of
(V, S), for any S, cycles included.  The distance therefore has the
partition closed form

    dist(v, S)^2 = sum over components C of (V, S) of (sum_{b in C} v_b)^2 / |C|.

f(S) is this distance for the net load b0 and h_i(S) for the coherency
target c^i = e_{u_i} - sum_k L_ik e_{ref_k}.  The objective
J(S) = xi f(S) + sum_i h_i(S) adds, per component C, the squared norm of
the sum of the weighted targets [sqrt(xi) b0_b, c^1_b, ..., c^n_b] over
C, divided by |C|.

That sum needs no m x (n+1) block.  Each bus carries one row of the
statistics block [b0, e_gen, y, e_ref] (MetricContext.stats, m x (2r+2),
independent of xi): its net load, 1 at a generator bus, y = L's row at a
generator bus less (1/2)(L^T L)[:, k] at reference k's bus, and e_k at
reference k's bus.  For a component with row sum (B0, G, Y, R) the
target sum is [sqrt(xi) B0, e_G - L R], whose squared norm is
xi B0^2 + G - 2 R.Y, so the component's J term is

    q_C = (xi B0^2 + G - 2 R.Y) / |C|,

for any number of references in C (the baseline's islands may hold 0 or
several).  The quadratic part xi x_0^2 - 2 x_R.x_Y is a form in the row
sums; G enters linearly because generator indicators of disjoint
components never overlap.  So joining components a and b, with sizes
n_a, n_b, statistics means mu_a, mu_b and h = G / n^2, lowers J by

    n_a n_b / (n_a + n_b) (xi d_0^2 - 2 d_R.d_Y + h_a + h_b),  d = mu_a - mu_b.

The difference of means is taken first; a difference of the terms q
would lose exact ties.  The form holds for two distinct components; a
line inside one component lowers J by exactly 0, which the evaluator
sets.  IncrementalEvaluator keeps the component labels and per
component the statistics sums, the size, the means, h and the J term q,
so every J-decrease is read from the means and J is the sum of the q; a
merge or a cut refreshes the components it touches only.  A decrease
depends only on the two components a line joins, so the greedy caches
it, reads the components at a line's ends from the evaluator's labels,
and rescores after a merge only the lines with an end in the merged
component.  Lines that make the same merge get bitwise-equal decreases;
the greedy's tie rule (a J-decrease within a relative band of 1e-12 of
the largest, then an f-decrease within the same band of the largest,
then the lowest canonical line index) also takes merges whose decreases
differ only by rounding as ties.

Unit convention: b0 is in MW, so f is in MW^2 and sqrt(f) is the
imbalance in MW; the coherency targets c^i are unitless.  This mix makes
trade-off weights xi of order 1e-7..1e-5 balance the two objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherency import CoherencyModel, check_references
from .netcase import OperatingPoint, PowerNetwork, component_labels, forest_walk


class MetricError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class MetricContext:
    net: PowerNetwork
    b0: np.ndarray         # MW net load vector d0 - g0 (balanced)
    L: np.ndarray          # n x r coherency matrix
    xi: float
    refs: tuple[int, ...]  # distinct generator indices, one per island

    @cached_property
    def ref_pos(self) -> np.ndarray:
        """Bus positions of the reference generators, island order."""
        return self.net.gen_pos[list(self.refs)]

    @cached_property
    def stats(self) -> np.ndarray:
        """Per-bus statistics block [b0, e_gen, y, e_ref], m x (2r+2), as
        the module docstring defines it.

        A weighted target sqrt(xi) b0 or a block entry (so an L entry) that
        is not finite is a MetricError: every merge gain would read
        inf - inf = NaN, and no line could win a greedy round."""
        net, L, r = self.net, self.L, len(self.refs)
        X = np.zeros((net.m, 2 * r + 2))
        X[:, 0] = self.b0
        X[net.gen_pos, 1] = 1.0
        X[net.gen_pos, 2:2 + r] = L
        X[self.ref_pos, 2:2 + r] -= 0.5 * (L.T @ L).T
        X[self.ref_pos, 2 + r + np.arange(r)] = 1.0
        if not (np.isfinite(np.sqrt(self.xi) * self.b0).all()
                and np.isfinite(X).all()):
            raise MetricError("weighted targets are not finite: an input is "
                              "too large for double precision")
        return X

    @cached_property
    def form(self) -> np.ndarray:
        """The (2r+2) x (2r+2) matrix Q of the quadratic form
        x Q x = xi x_0^2 - 2 x_R.x_Y on statistics rows."""
        r, k = len(self.refs), np.arange(len(self.refs))
        Q = np.zeros((2 * r + 2, 2 * r + 2))
        Q[0, 0] = self.xi
        Q[2 + k, 2 + r + k] = Q[2 + r + k, 2 + k] = -1.0
        return Q


def check_trade_off(xi: float) -> None:
    """The one rule for a trade-off weight: finite and nonnegative."""
    if not 0 <= xi < math.inf:
        raise MetricError("trade-off weight must be finite and nonnegative")


def build_context(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    xi: float,
) -> MetricContext:
    check_trade_off(xi)
    refs = tuple(model.refs)
    check_references(refs, net.n)
    return MetricContext(net=net, b0=op.injections, L=model.L, xi=xi, refs=refs)


def _quad(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x Q x per row of x.  Each column of Q holds at most one nonzero, so
    every entry of x @ Q is one product, the same bits on every BLAS
    kernel, and only numpy's own row sum adds."""
    return ((x @ Q) * x).sum(axis=-1)


def _terms(Q: np.ndarray, sums: np.ndarray, sizes) -> np.ndarray:
    """J term q = (xi B0^2 + G - 2 R.Y) / n per row of statistics sums."""
    return (_quad(Q, sums) + sums[..., 1]) / sizes


def _merge_gains(Q, mu_a, h_a, n_a, mu_b, h_b, n_b) -> np.ndarray:
    """Per row, J's decrease n_a n_b / (n_a + n_b) (xi d_0^2 - 2 d_R.d_Y
    + h_a + h_b), d = mu_a - mu_b."""
    return n_a * n_b / (n_a + n_b) * (_quad(Q, mu_a - mu_b) + h_a + h_b)


def _island_sums(ctx: MetricContext, labels: np.ndarray):
    """Statistics row sums and sizes of the components, by label."""
    sums = np.zeros((len(labels), ctx.stats.shape[1]))
    np.add.at(sums, labels, ctx.stats)
    sizes = np.bincount(labels, minlength=len(labels))
    keep = sizes > 0
    return sums[keep], sizes[keep]


def _partition_J(ctx: MetricContext, labels: np.ndarray) -> float:
    """J of the partition that labels gives, each component labelled by
    one of its buses, as `J` computes it."""
    return float(_terms(ctx.form, *_island_sums(ctx, labels)).sum())


class IncrementalEvaluator:
    """Partition state of one search over edge subsets.

    Holds the kept lines S, the component label of every bus (the
    smallest bus position in its component), and per component the sum
    of the statistics rows, the size, the means mu = sum / size,
    h = G / size^2 and the J term q.  Only the entries at current labels
    are meaningful.  gains() reads the J-decrease of every candidate
    line from the means in one vectorized pass and add() merges two
    components; on a forest, swap_J() reads the J of every swap out of
    one kept bridge and cut() removes it.  add() and cut() refresh mu, h
    and q only for the labels they touch, so J() sums m terms.  Owned by
    one logical search; the context itself is immutable and shared.
    """

    def __init__(self, ctx: MetricContext):
        self.ctx = ctx
        self.labels = np.arange(ctx.net.m)
        self.sums = ctx.stats.copy()
        self.sizes = np.ones(ctx.net.m, dtype=np.intp)
        self.mu = self.sums.copy()
        self.h = self.sums[:, 1].copy()
        self.q = _terms(ctx.form, self.sums, self.sizes)
        self.base = float(self.q.sum())  # J(empty set)
        self.S: list[int] = []

    def _refresh(self, c: int) -> None:
        """Recompute mu, h and q of label c from its sum and size."""
        x, n = self.sums[c], int(self.sizes[c])
        self.mu[c] = x / n
        self.h[c] = x[1] / (n * n)
        self.q[c] = _terms(self.ctx.form, x, n)

    def J(self) -> float:
        return float(self.q[self.sizes > 0].sum())

    def gains(self, candidates) -> np.ndarray:
        """J(S) - J(S + {e}) for each candidate edge, vectorized."""
        a, b = (self.labels[x[candidates]] for x in self.ctx.net.ends)
        gain = _merge_gains(self.ctx.form, self.mu[a], self.h[a], self.sizes[a],
                            self.mu[b], self.h[b], self.sizes[b])
        gain[a == b] = 0.0   # h counts G twice for a line within one island
        return gain

    def f_gains(self, candidates) -> np.ndarray:
        """f(S) - f(S + {e}) for each candidate edge, vectorized."""
        a, b = (self.labels[x[candidates]] for x in self.ctx.net.ends)
        na, nb = self.sizes[a], self.sizes[b]
        d = self.mu[a, 0] - self.mu[b, 0]
        return na * nb / (na + nb) * d * d

    def swap_J(self, piece, candidates, current: float) -> np.ndarray:
        """J(S - v + e) per candidate e, given current = J(S), where the kept
        bridge v cuts the buses `piece` (ascending) off and e has one end there."""
        Q, own = self.ctx.form, self.labels[piece[0]]
        p_sum, n_p = self.ctx.stats[piece].sum(axis=0), len(piece)
        rest_sum, n_rest = self.sums[own] - p_sum, self.sizes[own] - n_p
        mu_p, h_p = p_sum / n_p, p_sum[1] / (n_p * n_p)
        mu_rest, h_rest = rest_sum / n_rest, rest_sum[1] / (n_rest * n_rest)
        # cutting v raises J by the gain of merging its two sides, and a
        # line from the piece back to the rest lowers it by the same gain
        back = _merge_gains(Q, mu_p, h_p, n_p, mu_rest, h_rest, n_rest)
        cut_J = current + back
        a, b = (self.labels[x[candidates]] for x in self.ctx.net.ends)
        far = np.where(a == own, b, a)
        swapped = cut_J - _merge_gains(Q, mu_p, h_p, n_p, self.mu[far],
                                       self.h[far], self.sizes[far])
        swapped[far == own] = cut_J - back
        return swapped

    def add(self, e: int) -> None:
        a, b = (int(self.labels[x[e]]) for x in self.ctx.net.ends)
        if a != b:
            keep, gone = min(a, b), max(a, b)
            self.labels[self.labels == gone] = keep
            for arr in (self.sums, self.sizes):
                arr[keep] += arr[gone]
                arr[gone] = 0
            self._refresh(keep)
        self.S.append(e)

    def cut(self, v: int, piece) -> None:
        """Remove the kept bridge v that cuts the buses `piece` (ascending)
        off their component; both sides are summed afresh in bus order."""
        rest = self.labels == self.labels[piece[0]]
        rest[piece] = False
        for part in (piece, np.flatnonzero(rest)):
            lab = int(part[0])
            self.labels[part] = lab
            self.sums[lab] = self.ctx.stats[part].sum(axis=0)
            self.sizes[lab] = len(part)
            self._refresh(lab)
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
    sums, sizes = _island_sums(ctx, component_labels(ctx.net, S))
    return float((sums[:, 0] ** 2 / sizes).sum())


def J(ctx: MetricContext, S) -> float:
    return _partition_J(ctx, component_labels(ctx.net, S))


def island_labels(ctx: MetricContext, S) -> np.ndarray | None:
    """Bus -> island index if S is a forest with exactly one reference per
    tree, else None; island k holds the k-th reference of ctx.refs."""
    walk = forest_walk(ctx.net, S, ctx.ref_pos)
    return None if walk is None else walk[0]


def noncoherency(L: np.ndarray, L_g: np.ndarray) -> float:
    """Squared Frobenius distance between coherency and partition matrices."""
    if L.shape != L_g.shape:
        raise MetricError("shape mismatch between L and L_g")
    return float(np.linalg.norm(L - L_g, "fro") ** 2)

