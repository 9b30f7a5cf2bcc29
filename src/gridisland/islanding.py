"""Greedy spanning-forest islanding with local-search refinement.

Selecting which lines to keep is a matroid-constrained minimization: the
kept set S, together with virtual edges tying every reference generator
to a virtual root, must stay acyclic.  A maximal such S has m - r edges
and its connected components are the r islands, one reference each.

The reference set, which fixes the feasible line sets, lives in the
MetricContext as generator indices (ctx.refs) and bus positions
(ctx.ref_pos); every stage reads it and the network from the context.

The search state is one metrics.IncrementalEvaluator.  The local search
roots S at the references: by basis exchange, removing a kept line v
cuts off the subtree below v, and any line with exactly one end in that
subtree may replace v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import (
    IncrementalEvaluator,
    MetricContext,
    J,
    f,
    island_labels,
    noncoherency,
)
from .netcase import _is_index, forest_walk


class IslandingError(Exception):
    pass


# Smallest local-search epsilon.  A swap that leaves the partition as it
# is can still score about 1 ulp below J, so a much smaller epsilon
# accepts it and the search cycles (case39, r = 2, epsilon = 1e-15).
MIN_EPSILON = 1e-6


def check_epsilon(epsilon: float) -> None:
    """The one rule for the local-search threshold: MIN_EPSILON <= eps < 1.

    A swap is taken when J falls below (1 - eps) J, so eps >= 1 asks
    for a J below zero and never swaps; NaN fails the range too."""
    if not MIN_EPSILON <= epsilon < 1:
        raise IslandingError(f"epsilon must lie in [{MIN_EPSILON:g}, 1)")


@dataclass(frozen=True, eq=False)
class IslandingSolution:
    """One method's partition, under the names its report uses."""

    kept: tuple[int, ...]
    cutset: tuple[str, ...]
    islands: tuple[tuple[int, ...], ...]            # bus ids per island
    generator_groups: tuple[tuple[int, ...], ...]   # generator indices
    J: float
    sqrt_f_mw: float
    H_bar: float
    trace: tuple[float, ...]
    swaps: int
    method: str

    def as_dict(self) -> dict:
        return dict(vars(self))


# Relative width of the greedy's tie band.  On the bundled, meshed and
# tied cases the runner-up decreases within 1.1e-13 of the winner are
# rounding ties, and no other gap is below 1e-7.
TIE_BAND = 1e-12


def _ties(values: np.ndarray) -> np.ndarray:
    """Which values tie with the largest, top: those at or above
    top - TIE_BAND * |top|, or equal to top where it is not finite."""
    top = float(values.max())
    if not math.isfinite(top):
        return values == top
    return values >= top - TIE_BAND * abs(top)


def greedy_select(ctx: MetricContext) -> tuple[IncrementalEvaluator, list[float]]:
    """Stage 1: pick the maximal independent set, steepest J-descent first.

    Every round drops the lines that would close a cycle in the augmented
    graph (they would close one with the final set too, so dropping them
    permanently is safe) and adds the remaining line of largest
    J-decrease.  Tie rule: the lines whose J-decrease lies within
    `TIE_BAND` of the largest tie (see `_ties`); among them, those whose
    imbalance decrease f(S) - f(S + {e}) lies within the band of the
    largest tie again (at xi = 0 this is the order a vanishing positive
    xi gives), and the lowest canonical line index wins.  So a decrease
    that differs from the largest only by rounding cannot decide a round.

    A line's J-decrease depends only on the two islands it joins, so each
    candidate keeps its cached decrease and each label an anchored flag
    (its island holds a reference); the candidates' end labels are read
    from the evaluator's `labels` after each merge.  After a merge only
    the lines with an end in the merged island are rescored, in one
    `gains` call per round (empty if no such line is left); every other
    cached decrease is bitwise what a rescan would give, so the picks,
    and the trace, are the rescan's.  f-decreases are computed only for
    the tied lines.
    """
    ev = IncrementalEvaluator(ctx)
    ends = ctx.net.ends
    omega = np.arange(ctx.net.l)
    a, b = (ev.labels[x] for x in ends)   # the candidates' end labels
    anchored = np.zeros(ctx.net.m, dtype=bool)
    anchored[ctx.ref_pos] = True
    gain = np.empty(len(omega))
    stale = np.ones(len(omega), dtype=bool)
    target = ctx.net.m - len(ctx.refs)
    trace = [ev.J()]
    while len(ev.S) < target:
        live = (a != b) & ~(anchored[a] & anchored[b])
        omega, a, b, gain, stale = (
            x[live] for x in (omega, a, b, gain, stale))
        if not len(omega):
            break
        gain[stale] = ev.gains(omega[stale])
        tied = np.flatnonzero(_ties(gain))
        if len(tied) > 1:
            tied = tied[_ties(ev.f_gains(omega[tied]))]
        k = tied[0]
        ev.add(int(omega[k]))
        merged = ev.labels[ends[0][omega[k]]]
        anchored[merged] = anchored[a[k]] | anchored[b[k]]
        a, b = (ev.labels[x[omega]] for x in ends)
        stale = (a == merged) | (b == merged)
        trace.append(ev.J())
    if len(ev.S) != target:
        raise IslandingError("graph disconnected: no spanning basis exists")
    return ev, trace


def local_search(
    ev: IncrementalEvaluator, epsilon: float
) -> tuple[IncrementalEvaluator, list[float]]:
    """Stage 2: first-improvement edge swaps until no (1 - eps) cut exists.

    ev must hold a spanning forest with one reference per tree.  Each
    round roots it at the references and, for the kept lines v in
    ascending order, swaps in place the first line e (ascending) with one
    end below v and J(S - v + e) < (1 - eps) J(S), for an eps that
    `check_epsilon` accepts.  Returns the evaluator and the J after every
    swap.
    """
    check_epsilon(epsilon)
    ctx = ev.ctx
    walk = forest_walk(ctx.net, ev.S, ctx.ref_pos)
    if walk is None:
        raise IslandingError("S is not a forest with one reference per tree")
    trace = []
    current = ev.J()
    # below this floor the objective is numerically zero and any further
    # "improvement" is rounding noise, which would swap forever
    floor = 1e-12 * max(ev.base, 1.0)
    while current > floor:
        _, at, below = walk
        out_set = np.delete(np.arange(ctx.net.l), ev.S)
        out_i, out_j = (at[x[out_set]] for x in ctx.net.ends)
        for v in sorted(ev.S):
            lo, hi = below[v]
            feas = out_set[((lo <= out_i) & (out_i < hi))
                           != ((lo <= out_j) & (out_j < hi))]
            if not len(feas):
                continue
            piece = np.flatnonzero((lo <= at) & (at < hi))
            better = np.flatnonzero(
                ev.swap_J(piece, feas, current) < (1 - epsilon) * current)
            if len(better):
                ev.cut(v, piece)
                ev.add(int(feas[better[0]]))
                current = ev.J()
                trace.append(current)
                walk = forest_walk(ctx.net, ev.S, ctx.ref_pos)
                break
        else:
            break
    return ev, trace


def partition_solution(
    ctx: MetricContext, kept, labels, cols, method: str = "weak-submodular",
    trace=(), swaps: int = 0,
) -> IslandingSolution:
    """The solution for one partition of the buses into islands.

    kept is the sorted tuple of kept lines, labels the island of every bus
    position and cols[k] island k's coherency column.  Islands list bus
    ids in position order, groups generator indices in index order, and
    the cutset the sorted names of the lines between islands; J and f are
    kept's.
    """
    net, r = ctx.net, len(cols)
    islands = tuple(
        tuple(net.bus_ids[labels == k].tolist())
        for k in range(r)
    )
    island_of_gen = labels[net.gen_pos]
    groups = tuple(tuple(np.flatnonzero(island_of_gen == k).tolist())
                   for k in range(r))
    L_g = np.zeros((net.n, r))
    L_g[np.arange(net.n), np.asarray(cols)[island_of_gen]] = 1.0
    # lines to trip: only the edges crossing island boundaries; dropped
    # intra-island edges are redundant paths, not cuts
    ei, ej = net.ends
    crossing = labels[ei] != labels[ej]
    cut = tuple(sorted(f"{i}-{j}" for i, j in zip(net.line_i[crossing].tolist(),
                                                  net.line_j[crossing].tolist())))
    return IslandingSolution(
        kept=kept,
        cutset=cut,
        islands=islands,
        generator_groups=groups,
        J=J(ctx, kept),
        sqrt_f_mw=float(np.sqrt(f(ctx, kept))),
        H_bar=noncoherency(ctx.L, L_g),
        trace=tuple(trace),
        swaps=swaps,
        method=method,
    )


def extract_solution(
    ctx: MetricContext, S, trace=(), swaps: int = 0
) -> IslandingSolution:
    """Islands (the k-th holds the k-th reference), cutset and metrics of
    a kept set S of line indices in [0, l) that splits the buses into r
    islands, one reference each."""
    S = tuple(sorted(S))
    if not all(_is_index(e, ctx.net.l) for e in S):
        raise IslandingError(f"kept lines must be line indices in [0, {ctx.net.l})")
    labels = island_labels(ctx, S)
    if labels is None:
        raise IslandingError("S is not a forest with one reference per island")
    return partition_solution(ctx, S, labels, range(len(ctx.refs)),
                              trace=trace, swaps=swaps)


def solve(ctx: MetricContext, epsilon: float = 1e-3) -> IslandingSolution:
    """Full pipeline stage: greedy selection then local search."""
    check_epsilon(epsilon)   # fail before the greedy's work, not after it
    ev, trace = greedy_select(ctx)
    ev, swap_trace = local_search(ev, epsilon)
    return extract_solution(
        ctx, ev.S, trace=trace + swap_trace, swaps=len(swap_trace),
    )
