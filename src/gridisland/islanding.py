"""Greedy spanning-forest islanding with local-search refinement.

Selecting which lines to keep is a matroid-constrained minimization: the
kept set S, together with virtual edges tying every reference generator
to a virtual root, must stay acyclic.  A maximal such S has m - r edges
and its connected components are the r islands, one reference each.

The reference set, which fixes the feasible line sets, lives in the
MetricContext as generator indices (ctx.refs) and bus positions
(ctx.ref_pos); every stage reads it and the network from the context.

The search state is one metrics.IncrementalEvaluator: S, the component
label of every bus and the per-component sums that J and its gains come
from.  With every component that holds a reference joined to the root,
a line is feasible exactly when its two ends carry different labels.
"""

from __future__ import annotations

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


class IslandingError(Exception):
    pass


@dataclass(frozen=True)
class IslandingSolution:
    S: tuple[int, ...]
    cutset: tuple[str, ...]
    islands: tuple[tuple[int, ...], ...]   # bus ids per island
    groups: tuple[tuple[int, ...], ...]    # generator indices per island
    L_g: np.ndarray
    J_value: float
    sqrt_f_mw: float
    H_bar: float
    trace: tuple[float, ...]
    swap_count: int = 0
    method: str = "weak-submodular"

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "kept": sorted(self.S),
            "cutset": sorted(self.cutset),
            "islands": [sorted(isl) for isl in self.islands],
            "generator_groups": [sorted(g) for g in self.groups],
            "J": self.J_value,
            "sqrt_f_mw": self.sqrt_f_mw,
            "H_bar": self.H_bar,
            "trace": list(self.trace),
            "swaps": self.swap_count,
        }


def _root_labels(labels: np.ndarray, ref_pos: np.ndarray) -> np.ndarray:
    """Component labels of the augmented graph: every component holding a
    reference is joined to the virtual root, labelled -1."""
    anchored = np.zeros(len(labels), dtype=bool)
    anchored[labels[ref_pos]] = True
    return np.where(anchored[labels], -1, labels)


def greedy_select(ctx: MetricContext) -> tuple[IncrementalEvaluator, list[float]]:
    """Stage 1: pick the maximal independent set, steepest J-descent first.

    Every round drops the lines that would close a cycle in the augmented
    graph (they would close one with the final set too, so dropping them
    permanently is safe) and adds the remaining line of largest
    J-decrease.  Tie rule: among lines with exactly equal J-decrease, the
    one with the larger imbalance decrease f(S) - f(S + {e}) wins (at
    xi = 0 this is the order a vanishing positive xi gives), then the
    lowest canonical line index.  Lines that make the same merge have
    bitwise-equal decreases, so the rule needs no tolerance.
    """
    ev = IncrementalEvaluator(ctx)
    ei, ej = ctx.ends
    omega = np.arange(ctx.net.l)
    target = ctx.net.m - len(ctx.refs)
    trace = [ev.J()]
    while len(ev.S) < target:
        root = _root_labels(ev.labels, ctx.ref_pos)
        omega = omega[root[ei[omega]] != root[ej[omega]]]
        if not len(omega):
            break
        gains = ev.gains(omega)
        tied = np.flatnonzero(gains == gains.max())
        k = tied[int(np.argmax(ev.f_gains(omega[tied])))]
        ev.add(int(omega[k]))
        trace.append(ev.J())
    if len(ev.S) != target:
        raise IslandingError("graph disconnected: no spanning basis exists")
    return ev, trace


def local_search(
    ev: IncrementalEvaluator, epsilon: float
) -> tuple[IncrementalEvaluator, list[float]]:
    """Stage 2: first-improvement edge swaps until no (1 - eps) cut exists.

    A swap (v out, e in) is feasible when e joins two components of the
    augmented graph of S minus v; for a maximal S, when e joins the piece
    that removing v cut off from its reference to another island.  The
    component labels come from the evaluator fork for S minus v.  Returns
    the final evaluator and the J after every swap.
    """
    if epsilon <= 0:
        raise IslandingError("epsilon must be positive")
    ctx = ev.ctx
    ei, ej = ctx.ends
    trace = []
    current = ev.J()
    # below this floor the objective is numerically zero and any further
    # "improvement" is rounding noise, which would swap forever
    floor = 1e-12 * max(ev.base, 1.0)
    improved = True
    while improved and current > floor:
        improved = False
        out_set = np.delete(np.arange(ctx.net.l), ev.S)
        for v in sorted(ev.S):
            sub = ev.fork_without(v)
            root = _root_labels(sub.labels, ctx.ref_pos)
            feas = out_set[root[ei[out_set]] != root[ej[out_set]]]
            if not len(feas):
                continue
            better = np.flatnonzero(
                sub.J() - sub.gains(feas) < (1 - epsilon) * current)
            if len(better):
                sub.add(int(feas[better[0]]))
                ev = sub
                current = ev.J()
                trace.append(current)
                improved = True
                break
    return ev, trace


def partition_solution(
    ctx: MetricContext, kept, labels, cols, method: str = "weak-submodular",
    trace=(), swap_count: int = 0,
) -> IslandingSolution:
    """The solution for one partition of the buses into islands.

    kept is the sorted tuple of kept lines, labels the island of every bus
    position and cols[k] island k's coherency column.  Islands list bus
    ids in position order, groups generator indices in index order, and
    the cutset holds every line between two islands; J and f are kept's.
    """
    net, r = ctx.net, len(cols)
    islands = tuple(
        tuple(net.buses[pos].id for pos in np.flatnonzero(labels == k))
        for k in range(r)
    )
    island_of_gen = labels[net.gen_positions()]
    groups = tuple(tuple(np.flatnonzero(island_of_gen == k).tolist())
                   for k in range(r))
    L_g = np.zeros((net.n, r))
    L_g[np.arange(net.n), np.asarray(cols)[island_of_gen]] = 1.0
    # lines to trip: only the edges crossing island boundaries; dropped
    # intra-island edges are redundant paths, not cuts
    ei, ej = ctx.ends
    cut = tuple(net.branches[e].name
                for e in np.flatnonzero(labels[ei] != labels[ej]))
    return IslandingSolution(
        S=kept,
        cutset=cut,
        islands=islands,
        groups=groups,
        L_g=L_g,
        J_value=J(ctx, kept),
        sqrt_f_mw=float(np.sqrt(f(ctx, kept))),
        H_bar=noncoherency(ctx.L, L_g),
        trace=tuple(trace),
        swap_count=swap_count,
        method=method,
    )


def extract_solution(
    ctx: MetricContext, S, trace=(), swap_count: int = 0
) -> IslandingSolution:
    """Islands (the k-th holds the k-th reference), cutset and metrics of
    a kept set S that splits the buses into r islands, one reference each."""
    S = tuple(sorted(S))
    labels = island_labels(ctx, S)
    if labels is None:
        raise IslandingError("S is not a forest with one reference per island")
    return partition_solution(ctx, S, labels, range(len(ctx.refs)),
                              trace=trace, swap_count=swap_count)


def solve(ctx: MetricContext, epsilon: float = 1e-3) -> IslandingSolution:
    """Full pipeline stage: greedy selection then local search."""
    ev, trace = greedy_select(ctx)
    ev, swap_trace = local_search(ev, epsilon)
    return extract_solution(
        ctx, ev.S, trace=trace + swap_trace, swap_count=len(swap_trace),
    )
