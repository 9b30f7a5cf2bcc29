"""Greedy spanning-forest islanding with local-search refinement.

Selecting which lines to keep is a matroid-constrained minimization: the
kept set S, together with virtual edges tying every reference generator
to a virtual root, must stay acyclic.  A maximal such S has m - r edges
and its connected components are the r islands, one reference each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import log

import numpy as np

from .coherency import CoherencyModel
from .metrics import (
    IncrementalEvaluator,
    MetricContext,
    J,
    f,
    lambda_min_sparse,
    noncoherency,
)
from .netcase import PowerNetwork


class IslandingError(Exception):
    pass


class UnionFind:
    """Disjoint sets over bus positions plus a virtual root (index m)."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass
class PartitionSet:
    """Kept-edge set with union-find state over the augmented graph."""

    net: PowerNetwork
    ref_buses: tuple[int, ...]
    S: list[int] = field(default_factory=list)
    uf: UnionFind = field(init=False)

    def __post_init__(self):
        self.uf = UnionFind(self.net.m + 1)
        root = self.net.m
        for b in self.ref_buses:
            self.uf.union(root, self.net.bus_pos[b])
        for e in list(self.S):
            br = self.net.branches[e]
            if not self.uf.union(self.net.bus_pos[br.i], self.net.bus_pos[br.j]):
                raise IslandingError("initial edge set closes a cycle")

    def feasible(self, e: int) -> bool:
        br = self.net.branches[e]
        return self.uf.find(self.net.bus_pos[br.i]) != self.uf.find(
            self.net.bus_pos[br.j]
        )

    def add(self, e: int) -> None:
        if not self.feasible(e):
            raise IslandingError(f"edge {e} would close a cycle")
        br = self.net.branches[e]
        self.uf.union(self.net.bus_pos[br.i], self.net.bus_pos[br.j])
        self.S.append(e)

    def island_of(self) -> np.ndarray:
        """Bus position -> island index; requires a maximal (basis) set."""
        parent = UnionFind(self.net.m)
        for e in self.S:
            br = self.net.branches[e]
            parent.union(self.net.bus_pos[br.i], self.net.bus_pos[br.j])
        ref_roots = [parent.find(self.net.bus_pos[b]) for b in self.ref_buses]
        if len(set(ref_roots)) != len(ref_roots):
            raise IslandingError("two reference generators share an island")
        lookup = {rt: k for k, rt in enumerate(ref_roots)}
        labels = np.empty(self.net.m, dtype=int)
        for pos in range(self.net.m):
            rt = parent.find(pos)
            if rt not in lookup:
                raise IslandingError("island without a reference generator")
            labels[pos] = lookup[rt]
        return labels


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


def greedy_select(
    ctx: MetricContext, net: PowerNetwork, ref_buses
) -> tuple[PartitionSet, IncrementalEvaluator, list[float]]:
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
    ref_buses = tuple(ref_buses)
    if len(set(ref_buses)) != len(ref_buses):
        raise IslandingError("reference buses must be distinct")
    P = PartitionSet(net, ref_buses)
    ev = IncrementalEvaluator(ctx)
    ei, ej = ctx.ends
    ref_pos = np.array([net.bus_pos[b] for b in ref_buses], dtype=np.intp)
    omega = np.arange(net.l)
    target = net.m - len(ref_buses)
    trace = [ev.J()]
    while len(P.S) < target:
        root = _root_labels(ev.labels, ref_pos)
        omega = omega[root[ei[omega]] != root[ej[omega]]]
        if not len(omega):
            break
        gains = ev.gains(omega)
        tied = np.flatnonzero(gains == gains.max())
        k = tied[int(np.argmax(ev.f_gains(omega[tied])))]
        e = int(omega[k])
        P.add(e)
        ev.add(e)
        trace.append(ev.J())
    if len(P.S) != target:
        raise IslandingError("graph disconnected: no spanning basis exists")
    return P, ev, trace


def local_search(
    ctx: MetricContext,
    P: PartitionSet,
    ev: IncrementalEvaluator,
    epsilon: float,
    max_rounds: int | None = None,
) -> tuple[PartitionSet, IncrementalEvaluator, list[float], int]:
    """Stage 2: first-improvement edge swaps until no (1 - eps) cut exists.

    A swap (v out, e in) is feasible when e joins two components of the
    augmented graph of S minus v; for a maximal S, when e joins the piece
    that removing v cut off from its reference to another island.  The
    component labels come from the evaluator fork for S minus v.
    """
    if epsilon <= 0:
        raise IslandingError("epsilon must be positive")
    net = P.net
    ei, ej = ctx.ends
    ref_pos = np.array([net.bus_pos[b] for b in P.ref_buses], dtype=np.intp)
    trace = []
    swaps = 0
    current = ev.J()
    # below this floor the objective is numerically zero and any further
    # "improvement" is rounding noise, which would swap forever
    floor = 1e-12 * max(ev.base, 1.0)
    improved = True
    while improved and current > floor:
        if max_rounds is not None and swaps >= max_rounds:
            break
        improved = False
        kept = set(P.S)
        out_set = np.array([e for e in range(net.l) if e not in kept],
                           dtype=np.intp)
        for v in sorted(P.S):
            sub = ev.fork_without(v)
            root = _root_labels(sub.labels, ref_pos)
            feas = out_set[root[ei[out_set]] != root[ej[out_set]]]
            if not len(feas):
                continue
            better = np.flatnonzero(
                sub.J() - sub.gains(feas) < (1 - epsilon) * current)
            if len(better):
                e = int(feas[better[0]])
                new_S = [x for x in P.S if x != v] + [e]
                P = PartitionSet(net, P.ref_buses, S=new_S)
                sub.add(e)
                ev = sub
                current = ev.J()
                trace.append(current)
                swaps += 1
                improved = True
                break
    return P, ev, trace, swaps


def extract_solution(
    ctx: MetricContext,
    P: PartitionSet,
    model: CoherencyModel,
    trace=(),
    swap_count: int = 0,
    method: str = "weak-submodular",
) -> IslandingSolution:
    net = P.net
    labels = P.island_of()
    r = len(P.ref_buses)
    islands = tuple(
        tuple(net.buses[pos].id for pos in np.flatnonzero(labels == k))
        for k in range(r)
    )
    gen_pos = net.gen_positions()
    L_g = np.zeros((net.n, r))
    groups: list[list[int]] = [[] for _ in range(r)]
    for i in range(net.n):
        k = int(labels[gen_pos[i]])
        L_g[i, k] = 1.0
        groups[k].append(i)
    S = sorted(P.S)
    # lines to trip: only the edges crossing island boundaries; dropped
    # intra-island edges are redundant paths, not cuts
    ei, ej = ctx.ends
    crossing = labels[ei] != labels[ej]
    cut = tuple(net.branches[e].name for e in np.flatnonzero(crossing))
    f_val = f(ctx, S)
    return IslandingSolution(
        S=tuple(S),
        cutset=cut,
        islands=islands,
        groups=tuple(tuple(g) for g in groups),
        L_g=L_g,
        J_value=J(ctx, S),
        sqrt_f_mw=float(np.sqrt(f_val)),
        H_bar=noncoherency(model.L, L_g),
        trace=tuple(trace),
        swap_count=swap_count,
        method=method,
    )


def solve(
    ctx: MetricContext,
    net: PowerNetwork,
    model: CoherencyModel,
    epsilon: float = 1e-3,
) -> IslandingSolution:
    """Full pipeline stage: greedy selection then local search."""
    ref_buses = tuple(net.gens[i].bus for i in model.refs)
    P, ev, trace = greedy_select(ctx, net, ref_buses)
    P, ev, swap_trace, swaps = local_search(ctx, P, ev, epsilon)
    return extract_solution(
        ctx, P, model, trace=list(trace) + list(swap_trace), swap_count=swaps
    )


def enumerate_bases(net: PowerNetwork, ref_buses) -> list[tuple[int, ...]]:
    """All maximal independent sets of the augmented matroid (desk scale)."""
    r = len(ref_buses)
    size = net.m - r
    out = []
    for combo in itertools.combinations(range(net.l), size):
        try:
            PartitionSet(net, tuple(ref_buses), S=list(combo))
        except IslandingError:
            continue
        out.append(combo)
    return out


def check_greedy_bound(
    ctx: MetricContext,
    net: PowerNetwork,
    ref_buses,
    trace,
    final_S,
) -> bool:
    """Greedy-bound sanity check against the brute-forced optimum.

    Verifies J(S) <= (m - r - gamma0) J(S_{t-1}) + gamma0 J(S*), with
    gamma0 the 2|S|-sparse smallest eigenvalue of C, on an instance small
    enough to enumerate every basis.
    """
    m, r = net.m, len(ref_buses)
    S = sorted(final_S)
    if m - r == 0:
        return True
    bases = enumerate_bases(net, ref_buses)
    if not bases:
        raise IslandingError("no bases to enumerate")
    J_star = min(J(ctx, b) for b in bases)
    gamma0 = lambda_min_sparse(ctx, min(2 * len(S), ctx.C.shape[0]))
    J_prev = trace[-2] if len(trace) >= 2 else trace[-1]
    return J(ctx, S) <= (m - r - gamma0) * J_prev + gamma0 * J_star + 1e-9


def local_search_iteration_cap(ctx: MetricContext, epsilon: float) -> float:
    """Iteration budget (log J(E) - log J(empty)) / log(1 - eps)."""
    J_full = J(ctx, range(ctx.net.l))
    J_empty = J(ctx, [])
    if J_full <= 0:
        return float("inf")
    return (log(J_full) - log(J_empty)) / log(1 - epsilon)
