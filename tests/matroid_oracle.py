"""Brute-force matroid and spectral references for the islanding tests.

The kept lines S must stay a forest once every reference bus is tied to a
virtual root.  The helpers here enumerate that matroid's bases, draw
random ones, and check the paper's guarantees against exhaustive
computation: the greedy bound with the sparse-eigenvalue estimate of the
submodularity ratio (Das & Kempe, "Submodular meets Spectral", ICML 2011)
and the local search's iteration budget.  local_search_reference is the
local search with one evaluator per kept line.  They are desk-scale
oracles; nothing in the library calls them.
"""

import itertools
from math import comb, log

import numpy as np

from gridisland.metrics import J, MetricError, component_labels, island_labels
from gridisland.netcase import incidence_matrix


def enumerate_bases(ctx) -> list[tuple[int, ...]]:
    """All maximal independent sets of the augmented matroid: the kept
    sets of m - r lines that split the buses into r islands, one
    reference each."""
    size = ctx.net.m - len(ctx.refs)
    return [combo for combo in itertools.combinations(range(ctx.net.l), size)
            if island_labels(ctx, combo) is not None]


def random_basis(rng, net, ctx) -> list[int]:
    """A random maximal kept set: lines in random order, each kept unless
    it closes a cycle or joins two references."""
    ref_pos = net.gen_positions()[list(ctx.refs)]
    S = []
    for e in rng.permutation(net.l).tolist():
        labels = component_labels(ctx, S + [e])
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
    ei, ej = ctx.ends
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
