"""Brute-force matroid and spectral references for the islanding tests.

The kept lines S must stay a forest once every reference bus is tied to a
virtual root.  The helpers here enumerate that matroid's bases, draw
random ones, and check the paper's guarantees against exhaustive
computation: the greedy bound with the sparse-eigenvalue estimate of the
submodularity ratio (Das & Kempe, "Submodular meets Spectral", ICML 2011)
and the local search's iteration budget.  greedy_reference is the greedy
scored one line at a time, local_search_reference the local search with
one evaluator per kept line, island_labels_reference the union-find test
of a basis, and connected_partitions lists every partition a basis can
induce.  They are desk-scale oracles; nothing in the library calls them.
"""

import itertools
from math import comb, isfinite, log

import numpy as np

from gridisland.islanding import TIE_BAND
from gridisland.metrics import IncrementalEvaluator, J, MetricError, island_labels
from gridisland.netcase import component_labels, incidence_matrix


def enumerate_bases(ctx) -> list[tuple[int, ...]]:
    """All maximal independent sets of the augmented matroid: the kept
    sets of m - r lines that split the buses into r islands, one
    reference each."""
    size = ctx.net.m - len(ctx.refs)
    return [combo for combo in itertools.combinations(range(ctx.net.l), size)
            if island_labels(ctx, combo) is not None]


def island_labels_reference(ctx, S):
    """metrics.island_labels by union-find.

    S is a forest exactly when m minus its number of components is |S|.
    The partition is valid when every component holds exactly one
    reference; island k holds the k-th reference of ctx.refs.
    """
    S = list(S)
    labels = component_labels(ctx.net, S)
    n_parts = np.count_nonzero(labels == np.arange(ctx.net.m))
    ref_roots = labels[ctx.ref_pos]
    if (ctx.net.m - n_parts != len(S) or n_parts != len(ref_roots)
            or len(set(ref_roots.tolist())) != len(ref_roots)):
        return None
    island = np.empty(ctx.net.m, dtype=int)
    island[ref_roots] = np.arange(len(ref_roots))
    return island[labels]


def connected_partitions(ctx):
    """Every partition of the buses into connected islands holding one
    reference each, as island labels (island k holds ctx.refs[k]).

    Branch and absorb (the (s,t)-cut listing of Provan & Shier,
    Algorithmica 15, 1996): grow island k from its reference; branch on
    its lowest frontier bus, which goes in or is excluded for good; after
    each step absorb every piece of the other buses left that holds no
    later reference, or drop the branch if that piece holds an excluded
    bus.  An island with no frontier left is final, and the buses left
    are split the same way into islands k + 1, ...
    """
    net, refs = ctx.net, ctx.ref_pos.tolist()
    adj = [set() for _ in range(net.m)]
    for i, j in zip(*(x.tolist() for x in net.ends)):
        adj[i].add(j)
        adj[j].add(i)
    labels = np.empty(net.m, dtype=int)

    def pieces(buses):
        left = set(buses)
        while left:
            piece, stack = set(), [left.pop()]
            while stack:
                b = stack.pop()
                piece.add(b)
                stack += [w for w in adj[b] if w in left]
                left -= adj[b]
            yield piece

    def absorb(island, rest, later, out):
        for piece in pieces(rest - island):
            if not piece & later:
                if piece & out:
                    return None
                island |= piece
        return island

    def split(k, rest):
        if k == len(refs) - 1:   # every piece left holds a reference
            labels[list(rest)] = k
            yield labels.copy()
            return
        later = set(refs[k + 1:])

        def grow(island, out):
            frontier = set().union(*(adj[b] for b in island)) & rest
            frontier -= island | out
            if not frontier:
                labels[list(island)] = k
                yield from split(k + 1, rest - island)
                return
            b = min(frontier)
            bigger = absorb(island | {b}, rest, later, out)
            if bigger is not None:
                yield from grow(bigger, out)
            yield from grow(island, out | {b})

        start = absorb({refs[k]}, rest, later, later)
        if start is not None:
            yield from grow(start, later)

    yield from split(0, set(range(net.m)))


def random_basis(rng, net, ctx) -> list[int]:
    """A random maximal kept set: lines in random order, each kept unless
    it closes a cycle or joins two references."""
    ref_pos = net.gen_pos[list(ctx.refs)]
    S = []
    for e in rng.permutation(net.l).tolist():
        labels = component_labels(net, S + [e])
        if (len(np.unique(labels)) == net.m - len(S) - 1
                and len(np.unique(labels[ref_pos])) == len(ref_pos)):
            S.append(e)
    return sorted(S)


def spectral_matrix(ctx) -> np.ndarray:
    """C = A^T A / (2n), whose smallest eigenvalue bounds the submodularity
    ratio of J; A is the full incidence matrix."""
    A = incidence_matrix(ctx.net)
    return A.T @ A / (2 * ctx.net.n)


def lambda_min_C(ctx) -> float:
    C = spectral_matrix(ctx)
    return float(np.linalg.eigvalsh(0.5 * (C + C.T))[0])


def lambda_min_sparse(ctx, s: int, limit: int = 200000) -> float:
    """Smallest s-sparse eigenvalue of C by exhaustive column enumeration."""
    C = spectral_matrix(ctx)
    l = C.shape[0]
    if comb(l, s) > limit:
        raise MetricError(
            f"C({l},{s}) subsets exceed the exhaustive sweep limit; "
            "use the dense smallest eigenvalue instead")
    return min(float(np.linalg.eigvalsh(C[np.ix_(cols, cols)])[0])
               for cols in itertools.combinations(range(l), s))


def submodularity_ratio_bound(ctx, k: int) -> float:
    """Always-valid lower bound on the submodularity ratio: lambda_min of C."""
    if k < 1:
        raise MetricError("k must be at least 1")
    return lambda_min_C(ctx)


def submodularity_ratio_min(ctx) -> float:
    """Smallest enumerated submodularity ratio of the gain g(S) = J({}) - J(S):
    sum_{x in S} [g(L + x) - g(L)] / [g(L + S) - g(L)] over all L and every
    nonempty S disjoint from L, skipping denominators below 1e-9."""
    l = ctx.net.l
    g = {frozenset(c): J(ctx, []) - J(ctx, list(c))
         for k in range(l + 1) for c in itertools.combinations(range(l), k)}
    return min((sum(g[L | {x}] - g[L] for x in S) / (g[L | S] - g[L])
                for L in g for S in g
                if S and not S & L and g[L | S] - g[L] > 1e-9), default=np.inf)


def check_greedy_bound(ctx, trace, final_S) -> bool:
    """J(S) <= (m - r - gamma0) J(S_{t-1}) + gamma0 J(S*), with gamma0 the
    2|S|-sparse smallest eigenvalue of C and S* the best enumerated basis."""
    m, r = ctx.net.m, len(ctx.refs)
    S = sorted(final_S)
    if m - r == 0:
        return True
    bases = enumerate_bases(ctx)
    if not bases:
        raise ValueError("no bases to enumerate")
    J_star = min(J(ctx, b) for b in bases)
    gamma0 = lambda_min_sparse(ctx, min(2 * len(S), ctx.net.l))
    J_prev = trace[-2] if len(trace) >= 2 else trace[-1]
    return J(ctx, S) <= (m - r - gamma0) * J_prev + gamma0 * J_star + 1e-9


def greedy_reference(ctx):
    """islanding.greedy_select one line at a time.

    A union-find over the buses plus a virtual root, tied to every
    reference bus, says which lines the kept set can still take.  Each
    round scores every such line alone with gains([e]) and f_gains([e]).
    The lines whose J-decrease is within the tie band of the largest,
    top (at or above top - TIE_BAND |top|, or equal to a top that is not
    finite), tie; among them, those whose f-decrease is within the band
    of their largest; then the lowest index wins.  Returns the kept lines
    in the order picked and the J before the first pick and after every
    pick.
    """
    net = ctx.net
    root = net.m
    parent = list(range(net.m + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def band(scored):
        top = max(score for score, _ in scored)
        if not isfinite(top):
            return [t for t in scored if t[0] == top]
        return [t for t in scored if t[0] >= top - TIE_BAND * abs(top)]

    for p in ctx.ref_pos.tolist():
        parent[find(p)] = root
    ev = IncrementalEvaluator(ctx)
    ei, ej = (x.tolist() for x in net.ends)
    trace = [ev.J()]
    while True:
        scored = [(float(ev.gains([e])[0]), e) for e in range(net.l)
                  if find(ei[e]) != find(ej[e])]
        if not scored:
            return ev.S, trace
        tied = band(scored)
        e = min(e for _, e in band([(float(ev.f_gains([e])[0]), e)
                                     for _, e in tied]))
        a, b = find(ei[e]), find(ej[e])
        parent[min(a, b)] = max(a, b)   # the root, numbered m, stays a root
        ev.add(e)
        trace.append(ev.J())


def local_search_iteration_cap(ctx, epsilon: float) -> float:
    """Iteration budget (log J(E) - log J(empty)) / log(1 - eps)."""
    J_full = J(ctx, range(ctx.net.l))
    J_empty = J(ctx, [])
    if J_full <= 0:
        return float("inf")
    return (log(J_full) - log(J_empty)) / log(1 - epsilon)


def local_search_reference(ev, epsilon: float):
    """First-improvement edge swaps, with a new evaluator per kept line.

    For every kept line v in ascending order, an evaluator of S minus v
    gives the component labels.  With every component that holds a
    reference joined to the root, the non-kept lines whose ends carry
    different labels may replace v; the first of them in ascending order
    with J(S - v + e) < (1 - eps) J(S) does.  islanding.local_search
    reads the same swaps from one rooted forest per round.  Returns the
    final evaluator and the J after every swap; ev is left unchanged.
    """
    ctx = ev.ctx
    ei, ej = ctx.net.ends
    trace = []
    current = ev.J()
    floor = 1e-12 * max(ev.base, 1.0)
    improved = True
    while improved and current > floor:
        improved = False
        out_set = np.delete(np.arange(ctx.net.l), ev.S)
        for v in sorted(ev.S):
            sub = ev.fork_without(v)
            anchored = np.zeros(ctx.net.m, dtype=bool)
            anchored[sub.labels[ctx.ref_pos]] = True
            root = np.where(anchored[sub.labels], -1, sub.labels)
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
