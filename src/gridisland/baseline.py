"""Two-step islanding baseline.

A reconstruction of Ding et al.'s two-step spectral clustering; the
method keeps the name ``spectral`` so reports stay comparable.  Step one
groups generators by the exact global minimum cut of the dynamic coupling
weights on the reduced generator network (Stoer and Wagner's algorithm);
step two splits the buses with a min-cut whose capacities are the
absolute line flows, constrained to keep each generator group on its own
side.  Recursion continues until r islands.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .coherency import CoherencyModel
from .islanding import IslandingSolution
from .metrics import J, MetricContext, f, noncoherency
from .netcase import OperatingPoint, PowerNetwork


class BaselineError(Exception):
    pass


def coupling_weights(net: PowerNetwork, model: CoherencyModel) -> np.ndarray:
    """Symmetric dynamic-coupling weights on the reduced generator network.

    w_ij = |V_i V_j B_ij cos(delta_i - delta_j)| * (1/M_i + 1/M_j), using
    the machine inertia in seconds.
    """
    V = np.array([g.v for g in net.gens])
    Minv = np.array([1.0 / g.inertia for g in net.gens])
    dpd = np.abs(
        np.outer(V, V) * model.B_red
        * np.cos(model.delta[:, None] - model.delta[None, :])
    )
    W = dpd * (Minv[:, None] + Minv[None, :])
    np.fill_diagonal(W, 0.0)
    return 0.5 * (W + W.T)


def _cut_value(W: np.ndarray, mask: np.ndarray) -> float:
    return float(W[np.ix_(mask, ~mask)].sum())


def generator_bipartition(W: np.ndarray, nodes=None) -> tuple[list[int], list[int], float]:
    """Split a generator set across the minimum dynamic-coupling cut.

    The minimum over all bipartitions is the global min cut, found exactly
    by Stoer and Wagner's maximum-adjacency algorithm on a dense copy of
    the nonnegative symmetric W.  A disconnected W gives a zero cut.  Ties
    break deterministically: each phase starts at the lowest live index,
    the most tightly connected vertex is added next with ties to the lowest
    index, and a later phase replaces the best cut only if its cut is
    strictly smaller.  The side holding the smallest label comes first.
    Returns the two groups and the cut value.
    """
    n = W.shape[0]
    if nodes is None:
        nodes = list(range(n))
    if n < 2:
        raise BaselineError("need at least two generators to bipartition")
    if not (W >= 0).all():
        raise BaselineError("coupling weights must be nonnegative")
    A = np.array(W, dtype=float)
    live = np.ones(n, dtype=bool)
    members = [[k] for k in range(n)]
    best_val, best_side = np.inf, None
    for phase in range(n - 1):
        added = ~live
        start = int(np.argmax(live))
        added[start] = True
        conn = A[start].copy()
        prev = last = start
        for _ in range(n - 1 - phase):
            nxt = int(np.argmax(np.where(added, -np.inf, conn)))
            phase_cut = conn[nxt]
            added[nxt] = True
            conn += A[nxt]
            prev, last = last, nxt
        if phase_cut < best_val:
            best_val, best_side = phase_cut, list(members[last])
        # merge the last vertex of the phase into the one added before it
        A[prev] += A[last]
        A[:, prev] += A[:, last]
        A[prev, prev] = 0.0
        live[last] = False
        members[prev] += members[last]
    mask = np.zeros(n, dtype=bool)
    mask[best_side] = True
    t1 = [nodes[k] for k in range(n) if not mask[k]]
    t2 = [nodes[k] for k in range(n) if mask[k]]
    # deterministic orientation: side containing the smallest label first
    if min(t2) < min(t1):
        t1, t2 = t2, t1
    return t1, t2, _cut_value(W, mask)


def _max_flow(res: dict, src, snk) -> tuple[float, set]:
    """Maximum src-snk flow by shortest augmenting paths (Edmonds-Karp).

    res maps each node to {neighbour: residual capacity} and holds the
    reverse entry of every arc; it is updated in place.  Each augmentation
    pushes the bottleneck residual, which leaves that arc at exactly zero,
    so, as in exact arithmetic, the shortest-path distances never shrink
    and the search ends after O(VE) augmentations.  Returns the flow
    value and the nodes the last, failing search reached: the source side
    of the minimal minimum cut.
    """
    value = 0.0
    while True:
        parent = {src: src}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v, c in res[u].items():
                if c > 0.0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            return value, set(parent)
        path = []
        v = snk
        while v != src:
            path.append((parent[v], v))
            v = parent[v]
        delta = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= delta
            res[v][u] += delta
        value += delta


def constrained_mincut(
    net: PowerNetwork,
    op: OperatingPoint,
    T1,
    T2,
    buses=None,
    edges=None,
) -> tuple[set[int], set[int], list[int]]:
    """Minimum |flow| cut separating bus sets T1 and T2.

    T1's buses contract into the source, T2's into the sink; capacities
    are the absolute DC line flows.  The cut is the minimal minimum cut:
    T1 plus the buses the residual network of a maximum flow still reaches
    from the source.  Returns the two bus sets and the cut edges (canonical
    indices).  `buses`/`edges` restrict to a subsystem.
    """
    T1, T2 = set(T1), set(T2)
    if not T1 or not T2:
        raise BaselineError("both constraint sets must be nonempty")
    if T1 & T2:
        raise BaselineError("constraint sets overlap")
    if buses is None:
        buses = {b.id for b in net.buses}
    if edges is None:
        edges = [
            k for k, br in enumerate(net.branches)
            if br.i in buses and br.j in buses
        ]
    # contract T1 into the source and T2 into the sink; parallel lines and
    # both directions of a line add into one residual arc each way
    src, snk = "source", "sink"
    res: dict = {src: {}, snk: {}}
    for k in edges:
        br = net.branches[k]
        a = src if br.i in T1 else snk if br.i in T2 else br.i
        b = src if br.j in T1 else snk if br.j in T2 else br.j
        if a == b:
            continue
        cap = abs(float(op.flows[k]))
        ra, rb = res.setdefault(a, {}), res.setdefault(b, {})
        ra[b] = ra.get(b, 0.0) + cap
        rb[a] = rb.get(a, 0.0) + cap
    cut_value, side = _max_flow(res, src, snk)
    S1 = (side - {src}) | T1
    S2 = set(buses) - S1
    cut_edges = [
        k for k in edges
        if (net.branches[k].i in S1) != (net.branches[k].j in S1)
    ]
    achieved = sum(abs(float(op.flows[k])) for k in cut_edges)
    if abs(achieved - cut_value) > 1e-9 * max(1.0, cut_value):
        raise BaselineError(
            f"max-flow value {cut_value:.12g} disagrees with the returned "
            f"cut {achieved:.12g}")
    return S1, S2, sorted(cut_edges)


@dataclass(frozen=True)
class TwoStepPartition:
    """The xi-independent result of the two-step baseline."""

    kept: tuple[int, ...]
    cutset: tuple[str, ...]
    islands: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]
    L_g: np.ndarray
    H_bar: float

    def evaluate(self, ctx: MetricContext) -> IslandingSolution:
        """The baseline's solution with J and f under ctx's trade-off weight."""
        return IslandingSolution(
            S=self.kept,
            cutset=self.cutset,
            islands=self.islands,
            groups=self.groups,
            L_g=self.L_g,
            J_value=J(ctx, self.kept),
            sqrt_f_mw=float(np.sqrt(f(ctx, self.kept))),
            H_bar=self.H_bar,
            trace=(),
            method="spectral",
        )


def two_step_islanding(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    ctx: MetricContext,
    r: int,
) -> IslandingSolution:
    """Recursive bipartition until r islands, then metric evaluation."""
    return two_step_partition(net, op, model, r).evaluate(ctx)


def two_step_partition(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    r: int,
) -> TwoStepPartition:
    """Recursive bipartition until r islands.

    When more than one subsystem could be split next, the one whose
    internal coupling cut is cheapest is split first; this
    weakest-coupling-first order is a deterministic reconstruction of the
    published recursion.  Nothing here depends on the trade-off weight xi.
    """
    if r < 2:
        raise BaselineError("the spectral baseline needs r >= 2")
    W_full = coupling_weights(net, model)
    all_buses = {b.id for b in net.buses}
    # subsystems: (bus set, generator index list)
    subsystems: list[tuple[set[int], list[int]]] = [
        (all_buses, list(range(net.n)))
    ]
    removed: set[int] = set()
    while len(subsystems) < r:
        best = None
        for idx, (buses, gens) in enumerate(subsystems):
            if len(gens) < 2:
                continue
            W = W_full[np.ix_(gens, gens)]
            t1, t2, val = generator_bipartition(W, nodes=gens)
            if best is None or val < best[0]:
                best = (val, idx, t1, t2)
        if best is None:
            raise BaselineError("cannot reach r islands: too few generators")
        _, idx, t1, t2 = best
        buses, gens = subsystems.pop(idx)
        sub_edges = [
            k for k, br in enumerate(net.branches)
            if br.i in buses and br.j in buses and k not in removed
        ]
        b1 = {net.gens[i].bus for i in t1}
        b2 = {net.gens[i].bus for i in t2}
        S1, S2, cut = constrained_mincut(
            net, op, b1, b2, buses=buses, edges=sub_edges
        )
        removed.update(cut)
        subsystems.append((S1, t1))
        subsystems.append((S2, t2))

    # islands in a deterministic order: by smallest contained bus id
    subsystems.sort(key=lambda sg: min(sg[0]))
    # assign each island to a coherency column: the reference it contains,
    # falling back to the assignment minimizing ||L - L_g|| if ambiguous
    ref_of_island = [None] * r
    for k, (_, gens) in enumerate(subsystems):
        inside = [j for j, gi in enumerate(model.refs) if gi in gens]
        if len(inside) == 1:
            ref_of_island[k] = inside[0]
    if any(c is None for c in ref_of_island) or len(set(ref_of_island)) != r:
        ref_of_island = _best_assignment(model, subsystems)
    L_g = np.zeros((net.n, r))
    for k, (_, gens) in enumerate(subsystems):
        L_g[gens, ref_of_island[k]] = 1.0

    return TwoStepPartition(
        kept=tuple(k for k in range(net.l) if k not in removed),
        cutset=tuple(net.branches[e].name for e in sorted(removed)),
        islands=tuple(tuple(sorted(buses)) for buses, _ in subsystems),
        groups=tuple(tuple(sorted(gens)) for _, gens in subsystems),
        L_g=L_g,
        H_bar=noncoherency(model.L, L_g),
    )


def _best_assignment(model: CoherencyModel, subsystems) -> list[int]:
    """Island-to-column permutation minimizing sum ||L_i - e_col||^2.

    C[k, j] sums ||L_i - e_j||^2 over island k's generators; the first
    permutation in lexicographic order with the least total wins.
    """
    r = len(subsystems)
    dist = ((model.L[:, None, :] - np.eye(r)[None, :, :]) ** 2).sum(axis=2)
    return _least_cost_permutation(
        [dist[gens].sum(axis=0).tolist() for _, gens in subsystems])


def _least_cost_permutation(C) -> list[int]:
    """First permutation in lexicographic order with the least float sum.

    perm's total adds C[k][perm[k]] for k = 0, 1, ... left to right.  A
    depth-first search in lexicographic order extends the partial sum one
    row at a time and drops a branch once that sum, with the least entry
    of every later row added in the same order, reaches the best total.
    That is exact: rounded addition is monotone in each term, so every
    completion of the branch totals at least that bound and cannot win.
    """
    r = len(C)
    best_perm, best_cost = None, np.inf
    perm: list[int] = []
    free = [True] * r
    least = [min(row) for row in C]

    def extend(k: int, partial: float) -> None:
        nonlocal best_perm, best_cost
        if k == r:
            best_cost, best_perm = partial, list(perm)
            return
        for j in range(r):
            if free[j]:
                total = bound = partial + C[k][j]
                for low in least[k + 1:]:
                    bound += low
                if not bound < best_cost:
                    continue
                free[j] = False
                perm.append(j)
                extend(k + 1, total)
                perm.pop()
                free[j] = True

    extend(0, 0.0)
    return best_perm
