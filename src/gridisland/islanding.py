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
        anchored = np.zeros(ctx.net.m, dtype=bool)
        anchored[ev.labels[ctx.ref_pos]] = True
        root = np.where(anchored[ev.labels], -1, ev.labels)   # -1: joined to the root
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


def _rooted_forest(ctx: MetricContext, S) -> tuple[np.ndarray, dict]:
    """Preorder position of every bus of forest S rooted at the
    references, and per line of S the range [lo, hi) of positions below
    it: a stack-based preorder visits each subtree in one run."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(ctx.net.m)]
    for e, i, j in zip(S, *(x[S].tolist() for x in ctx.ends)):
        adj[i].append((j, e))
        adj[j].append((i, e))
    at, below, k = np.empty(ctx.net.m, dtype=np.intp), {}, 0
    stack = [(int(p), -1) for p in ctx.ref_pos]   # (bus, line to parent)
    while stack:
        u, line = stack.pop()
        if u < 0:   # marker: the run of buses below `line` ends here
            below[line] = (below[line], k)
        else:
            below[line], at[u], k = k, k, k + 1
            stack += [(-1, line)] + [(w, e) for w, e in adj[u] if e != line]
    return at, below


def local_search(
    ev: IncrementalEvaluator, epsilon: float
) -> tuple[IncrementalEvaluator, list[float]]:
    """Stage 2: first-improvement edge swaps until no (1 - eps) cut exists.

    ev must hold a spanning forest with one reference per tree.  Each
    round roots it at the references and, for the kept lines v in
    ascending order, swaps in place the first line e (ascending) with one
    end below v and J(S - v + e) < (1 - eps) J(S).  Returns the evaluator
    and the J after every swap.
    """
    if epsilon <= 0:
        raise IslandingError("epsilon must be positive")
    ctx = ev.ctx
    if island_labels(ctx, ev.S) is None:
        raise IslandingError("S is not a forest with one reference per tree")
    trace = []
    current = ev.J()
    # below this floor the objective is numerically zero and any further
    # "improvement" is rounding noise, which would swap forever
    floor = 1e-12 * max(ev.base, 1.0)
    while current > floor:
        at, below = _rooted_forest(ctx, ev.S)
        out_set = np.delete(np.arange(ctx.net.l), ev.S)
        out_i, out_j = (at[x[out_set]] for x in ctx.ends)
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
                break
        else:
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
