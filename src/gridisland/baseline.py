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
    """Dynamic-coupling weights on the reduced generator network.

    w_ij = |K_ij| (1/H_i + 1/H_j), w_ii = 0, from the model's coupling
    matrix K and the machine inertias H in seconds; symmetric as K is.
    """
    Hinv = 1.0 / net.inertia
    W = np.abs(model.K)
    W *= Hinv[:, None] + Hinv[None, :]
    np.fill_diagonal(W, 0.0)
    return W


def check_island_count(r: int) -> None:
    """The one rule for the baseline's island count: a bipartition needs r >= 2."""
    if r < 2:
        raise BaselineError("the spectral baseline needs r >= 2")


def generator_bipartition(W: np.ndarray) -> tuple[list[int], list[int], float]:
    """Split a generator set across the minimum dynamic-coupling cut.

    The minimum over all bipartitions is the global min cut, found exactly
    by Stoer and Wagner's maximum-adjacency algorithm on a dense copy of
    the finite nonnegative symmetric W.  A disconnected W gives a zero cut.
    Ties break deterministically: each phase starts at the lowest live
    index, the most tightly connected vertex is added next with ties to the
    lowest index, and a later phase replaces the best cut only if its cut
    is strictly smaller.  Vertex 0 starts every phase, so it is never a
    phase's last vertex, is never merged away and never lies on the cut
    side a phase records: the first group always holds it.  Returns the
    two groups as ascending positions in W, and the cut value.
    """
    n = W.shape[0]
    if n < 2:
        raise BaselineError("need at least two generators to bipartition")
    if not (np.isfinite(W) & (W >= 0)).all():
        raise BaselineError("coupling weights must be finite and nonnegative")
    A = np.array(W, dtype=float)
    live = np.ones(n, dtype=bool)
    members = [[k] for k in range(n)]
    best_val, best_side = np.inf, None
    for phase in range(n - 1):
        # conn keys every live vertex not yet added; the rest hold -inf
        start = int(live.argmax())
        conn = A[start].copy()
        conn[~live] = -np.inf
        conn[start] = -np.inf
        prev = last = start
        for _ in range(n - 1 - phase):
            nxt = int(conn.argmax())
            phase_cut = conn[nxt]
            conn += A[nxt]
            conn[nxt] = -np.inf
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
    return (np.flatnonzero(~mask).tolist(), np.flatnonzero(mask).tolist(),
            float(W[np.ix_(mask, ~mask)].sum()))


def _max_flow(res: dict, src, snk) -> float:
    """Maximum src-snk flow by shortest augmenting paths (Edmonds-Karp).

    res maps each node to {neighbour: residual capacity} and holds the
    reverse entry of every arc; it is updated in place.  Each augmentation
    pushes the bottleneck residual, which leaves that arc at exactly zero,
    so, as in exact arithmetic, the shortest-path distances never shrink
    and the search ends after O(VE) augmentations.  Returns the flow
    value.
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
            return value
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
    """Minimum |flow| cut separating the bus positions T1 and T2.

    T1's buses contract into the source, T2's into the sink; capacities
    are the absolute DC line flows.  The source side starts as the minimal
    minimum cut: T1 plus the buses the residual network of a maximum flow
    still reaches from the source.  Ties between minimum cuts go by one
    rule, not by rounding: a residual at or below 1e-9 * max(1, cut value)
    counts as saturated, the tolerance the flow check below also uses.
    Every piece of the rest that holds no T2 bus then joins the source
    side, so each connected piece of either side holds a terminal.
    Returns the two sets of bus positions and the cut edges (canonical
    indices).  `edges` restricts to a subsystem: T1, T2 and the ends of
    those lines.
    """
    T1, T2 = set(T1), set(T2)
    if not T1 or not T2:
        raise BaselineError("both constraint sets must be nonempty")
    if T1 & T2:
        raise BaselineError("constraint sets overlap")
    edges = list(range(net.l) if edges is None else edges)
    ends = list(zip(edges, *(x[edges].tolist() for x in net.ends)))
    # contract T1 into the source and T2 into the sink; parallel lines and
    # both directions of a line add into one residual arc each way
    src, snk = -1, -2
    res: dict = {src: {}, snk: {}}
    for k, i, j in ends:
        a = src if i in T1 else snk if i in T2 else i
        b = src if j in T1 else snk if j in T2 else j
        if a == b:
            continue
        cap = abs(float(op.flows[k]))
        ra, rb = res.setdefault(a, {}), res.setdefault(b, {})
        ra[b] = ra.get(b, 0.0) + cap
        rb[a] = rb.get(a, 0.0) + cap
    cut_value = _max_flow(res, src, snk)
    tol = 1e-9 * max(1.0, cut_value)
    side, stack = {src}, [src]
    while stack:
        for v, c in res[stack.pop()].items():
            if c > tol and v not in side:
                side.add(v)
                stack.append(v)
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
    cut_edges = [k for k, i, j in ends if (i in S1) != (j in S1)]
    # summed left to right: from Python 3.12 the builtin sum compensates
    achieved = 0.0
    for k in cut_edges:
        achieved += abs(float(op.flows[k]))
    if abs(achieved - cut_value) > tol:
        raise BaselineError(
            f"max-flow value {cut_value:.12g} disagrees with the returned "
            f"cut {achieved:.12g}")
    return S1, S2, sorted(cut_edges)


@dataclass(frozen=True, eq=False)
class TwoStepPartition:
    """The xi-independent result of the two-step baseline.

    kept is the sorted tuple of lines whose two ends share an island,
    labels the island index of every bus position (islands ordered by
    their first bus position, so by smallest bus id), and cols[k] the
    coherency column of island k.
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
) -> IslandingSolution:
    """two_step_partition(net, op, model).evaluate(ctx).  No run calls
    it; it stays while perfbench's span table still names it."""
    return two_step_partition(net, op, model).evaluate(ctx)


def two_step_partition(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
) -> TwoStepPartition:
    """Recursive bipartition until r = len(model.refs) islands.

    When more than one subsystem could be split next, the one whose
    internal coupling cut is cheapest is split first, ties to the earliest
    subsystem in split order (a split subsystem leaves the list and its
    two halves are appended); this weakest-coupling-first order is a
    deterministic reconstruction of the published recursion.  Each
    subsystem's generator grouping is computed once, when first needed.
    Nothing here depends on the trade-off weight xi.
    """
    r = len(model.refs)
    check_island_count(r)
    W_full = coupling_weights(net, model)
    ei, ej = net.ends
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
                split = subsystems[pos][2] = generator_bipartition(W)
            if best is None or split[2] < best[0]:
                best = (split[2], pos)
        if best is None:
            raise BaselineError("cannot reach r islands: too few generators")
        idx, gens, (t1, t2, _) = subsystems.pop(best[1])
        t1, t2 = [gens[k] for k in t1], [gens[k] for k in t2]
        inside = sub == idx
        _, S2, _ = constrained_mincut(
            net, op, net.gen_pos[t1], net.gen_pos[t2],
            edges=np.flatnonzero(inside[ei] & inside[ej]).tolist(),
        )
        new = len(subsystems) + 1
        sub[list(S2)] = new
        subsystems += [[idx, t1, None], [new, t2, None]]

    # islands in a deterministic order: by first bus position, which is the
    # smallest bus id as the parser sorts buses by id
    order = np.argsort(np.unique(sub, return_index=True)[1])
    labels = np.argsort(order)[sub]
    # island k's coherency column is that of the one reference it holds,
    # or else from the assignment minimizing ||L - L_g||
    island_of_gen = labels[net.gen_pos]
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
