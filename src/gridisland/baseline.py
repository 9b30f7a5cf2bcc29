"""Two-step spectral-clustering islanding baseline.

Step one groups generators by minimizing the dynamic coupling cut on the
reduced generator network; step two splits the buses with a min-cut whose
capacities are the absolute line flows, constrained to keep each
generator group on its own side.  Recursion continues until r islands.
"""

from __future__ import annotations

import numpy as np
import networkx as nx
from networkx.algorithms.flow import shortest_augmenting_path

from .coherency import CoherencyModel
from .islanding import IslandingSolution
from .metrics import MetricContext
from .netcase import OperatingPoint, PowerNetwork

EXHAUSTIVE_LIMIT = 22  # vectorized bipartition enumeration up to this size


class BaselineError(Exception):
    pass


def coupling_weights(net: PowerNetwork, model: CoherencyModel) -> np.ndarray:
    """Symmetric dynamic-coupling weights on the reduced generator network.

    w_ij = |V_i V_j B_ij cos(delta_i - delta_j)| * (1/M_i + 1/M_j), using
    the machine inertia in seconds.
    """
    n = net.n
    V = np.array([g.v for g in net.gens])
    Minv = np.array([1.0 / g.inertia for g in net.gens])
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dpd = abs(
                    V[i] * V[j] * model.B_red[i, j]
                    * np.cos(model.delta[i] - model.delta[j])
                )
                W[i, j] = dpd * (Minv[i] + Minv[j])
    return 0.5 * (W + W.T)


def _cut_value(W: np.ndarray, mask: np.ndarray) -> float:
    return float(W[np.ix_(mask, ~mask)].sum())


def _fiedler_sweep(W: np.ndarray) -> tuple[np.ndarray, float]:
    n = W.shape[0]
    deg = W.sum(axis=1)
    d = np.where(deg > 0, deg, 1.0)
    Lap = np.diag(deg) - W
    Lnorm = Lap / np.sqrt(np.outer(d, d))
    vals, vecs = np.linalg.eigh(0.5 * (Lnorm + Lnorm.T))
    fiedler = vecs[:, 1] if n > 1 else vecs[:, 0]
    order = np.argsort(fiedler, kind="stable")
    best_mask, best_val = None, np.inf
    for cut in range(1, n):
        mask = np.zeros(n, dtype=bool)
        mask[order[:cut]] = True
        val = _cut_value(W, mask)
        if val < best_val:
            best_val, best_mask = val, mask
    return best_mask, best_val


def _exhaustive_bipartition(W: np.ndarray) -> tuple[np.ndarray, float]:
    n = W.shape[0]
    # fix node 0 on side one; enumerate the rest as bit masks
    count = 1 << (n - 1)
    codes = np.arange(count, dtype=np.int64)
    masks = np.zeros((count, n), dtype=bool)
    for b in range(n - 1):
        masks[:, b + 1] = (codes >> b) & 1
    masks = masks[1:]  # drop the empty second side
    side1 = ~masks
    vals = np.einsum("ki,ij,kj->k", side1.astype(float), W, masks.astype(float))
    best = int(np.argmin(vals))
    return masks[best], float(vals[best])


def generator_bipartition(W: np.ndarray, nodes=None) -> tuple[list[int], list[int], float]:
    """Split a generator set across the minimum dynamic-coupling cut.

    Exact enumeration when the set is small (it always is for the bundled
    cases); Fiedler-vector threshold sweep on the normalized Laplacian
    otherwise.  Returns the two groups and the cut value.
    """
    n = W.shape[0]
    if nodes is None:
        nodes = list(range(n))
    if n < 2:
        raise BaselineError("need at least two generators to bipartition")
    comps = _components(W)
    if len(comps) > 1:
        mask = np.zeros(n, dtype=bool)
        mask[comps[0]] = True
        val = 0.0
    elif n <= EXHAUSTIVE_LIMIT:
        mask, val = _exhaustive_bipartition(W)
    else:
        mask, val = _fiedler_sweep(W)
    t1 = [nodes[k] for k in range(n) if not mask[k]]
    t2 = [nodes[k] for k in range(n) if mask[k]]
    # deterministic orientation: side containing the smallest label first
    if min(t2) < min(t1):
        t1, t2 = t2, t1
    return t1, t2, val


def _components(W: np.ndarray) -> list[list[int]]:
    n = W.shape[0]
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if W[u, v] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


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
    are the absolute DC line flows.  Returns the two bus sets and the cut
    edges (canonical indices).  `buses`/`edges` restrict to a subsystem.
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
    # explicit arcs both ways: minimum_cut's partition comes from residual
    # reachability, which is only reliable on a directed graph
    G = nx.DiGraph()
    G.add_nodes_from(buses)
    src, snk = "source", "sink"
    G.add_node(src)
    G.add_node(snk)
    for b in T1:
        G.add_edge(src, b, capacity=float("inf"))
    for b in T2:
        G.add_edge(b, snk, capacity=float("inf"))
    for k in edges:
        br = net.branches[k]
        cap = abs(float(op.flows[k]))
        for a, b in ((br.i, br.j), (br.j, br.i)):
            if G.has_edge(a, b):
                G[a][b]["capacity"] += cap
            else:
                G.add_edge(a, b, capacity=cap)
    # nx.minimum_cut derives the partition from exact flow == capacity
    # comparisons, which rounding error can defeat; recover the source side
    # from the residual network with a tolerance on the remaining slack
    R = shortest_augmenting_path(G, src, snk)
    cut_value = R.graph["flow_value"]
    tol = 1e-9 * max(1.0, cut_value)
    S1 = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v, d in R[u].items():
            if v not in S1 and d["capacity"] - d["flow"] > tol:
                S1.add(v)
                stack.append(v)
    S1 -= {src}
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


def two_step_islanding(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    ctx: MetricContext,
    r: int,
) -> IslandingSolution:
    """Recursive bipartition until r islands, then metric evaluation.

    When more than one subsystem could be split next, the one whose
    internal coupling cut is cheapest is split first; this
    weakest-coupling-first order is a deterministic reconstruction of the
    published recursion.
    """
    if r < 2:
        raise BaselineError("the spectral baseline needs r >= 2")
    W_full = coupling_weights(net, model)
    all_buses = {b.id for b in net.buses}
    # subsystems: (bus set, generator index list)
    subsystems: list[tuple[set[int], list[int]]] = [
        (all_buses, list(range(net.n)))
    ]
    removed: list[int] = []
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
            if br.i in buses and br.j in buses and k not in set(removed)
        ]
        b1 = {net.gens[i].bus for i in t1}
        b2 = {net.gens[i].bus for i in t2}
        S1, S2, cut = constrained_mincut(
            net, op, b1, b2, buses=buses, edges=sub_edges
        )
        removed.extend(cut)
        subsystems.append((S1, t1))
        subsystems.append((S2, t2))
    kept = [k for k in range(net.l) if k not in set(removed)]
    return _build_solution(net, model, ctx, subsystems, kept, removed)


def _build_solution(
    net: PowerNetwork,
    model: CoherencyModel,
    ctx: MetricContext,
    subsystems,
    kept: list[int],
    removed: list[int],
) -> IslandingSolution:
    from .metrics import J, f, noncoherency

    r = len(subsystems)
    # islands in a deterministic order: by smallest contained bus id
    subsystems = sorted(subsystems, key=lambda sg: min(sg[0]))
    islands = tuple(tuple(sorted(buses)) for buses, _ in subsystems)
    groups = tuple(tuple(sorted(gens)) for _, gens in subsystems)

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
        for i in gens:
            L_g[i, ref_of_island[k]] = 1.0

    f_val = f(ctx, kept)
    return IslandingSolution(
        S=tuple(sorted(kept)),
        cutset=tuple(net.branches[e].name for e in sorted(removed)),
        islands=islands,
        groups=groups,
        L_g=L_g,
        J_value=J(ctx, kept),
        sqrt_f_mw=float(np.sqrt(f_val)),
        H_bar=noncoherency(model.L, L_g),
        trace=(),
        method="spectral",
    )


def _best_assignment(model: CoherencyModel, subsystems) -> list[int]:
    from itertools import permutations

    r = len(subsystems)
    best_perm, best_cost = None, np.inf
    for perm in permutations(range(r)):
        cost = 0.0
        for k, (_, gens) in enumerate(subsystems):
            for i in gens:
                row = model.L[i].copy()
                row[perm[k]] -= 1.0
                cost += float(row @ row)
        if cost < best_cost:
            best_cost, best_perm = cost, list(perm)
    return best_perm
