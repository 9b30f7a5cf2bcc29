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
from .islanding import IslandingSolution, partition_solution
from .metrics import MetricContext
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
    edges=None,
) -> tuple[set[int], set[int], list[int]]:
    """Minimum |flow| cut separating bus sets T1 and T2.

    T1's buses contract into the source, T2's into the sink; capacities
    are the absolute DC line flows.  The source side starts as the minimal
    minimum cut: T1 plus the buses the residual network of a maximum flow
    still reaches from the source.  Every piece of the rest that holds no
    T2 bus then joins it, so each connected piece of either side holds a
    terminal.  Returns the two bus sets and the cut edges (canonical
    indices).  `edges` restricts to a subsystem: T1, T2 and the ends of
    those lines.
    """
    T1, T2 = set(T1), set(T2)
    if not T1 or not T2:
        raise BaselineError("both constraint sets must be nonempty")
    if T1 & T2:
        raise BaselineError("constraint sets overlap")
    if edges is None:
        edges = range(net.l)
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
    # sink-side pieces without a T2 bus join the source side; the cut
    # stays minimum, as their lines to that side carry no flow
    S2, stack = {snk}, [snk]
    while stack:
        for v in res[stack.pop()]:
            if v not in side and v not in S2:
                S2.add(v)
                stack.append(v)
    S2 = (S2 - {snk}) | T2
    S1 = (set(res) - {src, snk} - S2) | T1
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
    """The xi-independent result of the two-step baseline.

    kept is the sorted tuple of lines whose two ends share an island,
    labels the island index of every bus position (islands ordered by
    their smallest bus id), and cols[k] the coherency column of island k.
    """

    kept: tuple[int, ...]
    labels: np.ndarray
    cols: tuple[int, ...]

    def evaluate(self, ctx: MetricContext) -> IslandingSolution:
        """The baseline's solution with J and f under ctx's trade-off weight."""
        return partition_solution(ctx, self.kept, self.labels, self.cols,
                                  method="spectral")


def two_step_islanding(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    ctx: MetricContext,
    r: int,
) -> IslandingSolution:
    """two_step_partition(net, op, model, r).evaluate(ctx).  No run calls
    it; it stays while perfbench's span table still names it."""
    return two_step_partition(net, op, model, r).evaluate(ctx)


def two_step_partition(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    r: int,
) -> TwoStepPartition:
    """Recursive bipartition until r islands.

    When more than one subsystem could be split next, the one whose
    internal coupling cut is cheapest is split first, ties to the earliest
    subsystem in split order (a split subsystem leaves the list and its
    two halves are appended); this weakest-coupling-first order is a
    deterministic reconstruction of the published recursion.  Each
    subsystem's generator grouping is computed once, when first needed.
    Nothing here depends on the trade-off weight xi.
    """
    if r < 2:
        raise BaselineError("the spectral baseline needs r >= 2")
    W_full = coupling_weights(net, model)
    ei = np.array([net.bus_pos[br.i] for br in net.branches], dtype=np.intp)
    ej = np.array([net.bus_pos[br.j] for br in net.branches], dtype=np.intp)
    bus_ids = np.array([b.id for b in net.buses])
    sub = np.zeros(net.m, dtype=np.intp)   # subsystem index per bus position
    # subsystems in split order: [index, generators, grouping or None]
    subsystems: list[list] = [[0, list(range(net.n)), None]]
    while len(subsystems) < r:
        best = None
        for pos, (_, gens, split) in enumerate(subsystems):
            if len(gens) < 2:
                continue
            if split is None:
                W = W_full[np.ix_(gens, gens)]
                split = subsystems[pos][2] = generator_bipartition(W, nodes=gens)
            if best is None or split[2] < best[0]:
                best = (split[2], pos)
        if best is None:
            raise BaselineError("cannot reach r islands: too few generators")
        idx, _, (t1, t2, _) = subsystems.pop(best[1])
        inside = sub == idx
        _, S2, _ = constrained_mincut(
            net, op,
            {net.gens[i].bus for i in t1}, {net.gens[i].bus for i in t2},
            edges=np.flatnonzero(inside[ei] & inside[ej]).tolist(),
        )
        new = len(subsystems) + 1
        sub[[net.bus_pos[b] for b in S2]] = new
        subsystems += [[idx, t1, None], [new, t2, None]]

    # islands in a deterministic order: by smallest contained bus id
    order = sorted(range(r), key=lambda idx: bus_ids[sub == idx].min())
    labels = np.argsort(order)[sub]
    # island k's coherency column is that of the one reference it holds,
    # or else from the assignment minimizing ||L - L_g||
    island_of_gen = labels[net.gen_positions()]
    holder = island_of_gen[list(model.refs)]
    if len(set(holder.tolist())) == r:
        cols = np.argsort(holder).tolist()
    else:
        cols = _best_assignment(
            model, [np.flatnonzero(island_of_gen == k) for k in range(r)])
    return TwoStepPartition(
        kept=tuple(np.flatnonzero(labels[ei] == labels[ej]).tolist()),
        labels=labels,
        cols=tuple(cols),
    )


def _best_assignment(model: CoherencyModel, groups) -> list[int]:
    """Island-to-column permutation minimizing sum ||L_i - e_col||^2.

    groups[k] lists island k's generators; C[k, j] sums ||L_i - e_j||^2
    over them.  The first permutation in lexicographic order with the
    least total wins.
    """
    r = len(groups)
    dist = ((model.L[:, None, :] - np.eye(r)[None, :, :]) ** 2).sum(axis=2)
    return _least_cost_permutation(
        [dist[gens].sum(axis=0).tolist() for gens in groups])


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
