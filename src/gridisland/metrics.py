"""Objective metrics for islanding strategies.

The relaxed metrics measure how far a target bus vector v lies from the
flows the kept lines S can carry: the squared distance from v to the
column span of the incidence submatrix A(S).  That span is exactly the
set of bus vectors that sum to zero over every connected component of
(V, S), for any S, cycles included.  The distance therefore has the
partition closed form

    dist(v, S)^2 = sum over components C of (V, S) of (sum_{b in C} v_b)^2 / |C|.

f(S) is this distance for the net load b0 and h_i(S) for the coherency
target c^i.  The objective J(S) = xi f(S) + sum_i h_i(S) is the same sum
over the rows T_b of the weighted target block
T = [sqrt(xi) b0, c^1, ..., c^n]:

    J(S) = sum_C ||sum_{b in C} T_b||^2 / |C|.

Joining components a and b, with sizes n_a, n_b and target means mu_a,
mu_b, lowers J by n_a n_b / (n_a + n_b) ||mu_a - mu_b||^2.  A line inside
one component lowers it by exactly 0.  IncrementalEvaluator keeps the
component labels and the per-component target sums and sizes, so every
J-decrease is read from them.  Lines that make the same merge get
bitwise-equal decreases, so the greedy's tie rule (equal J-decrease,
then the larger f-decrease, then the lowest canonical line index) needs
no tolerance.

The constrained imbalance F adds the box -g_max <= y <= d_max to the
zero-sum condition.  It separates over components: in component C the
closest point is y = clip(b0 - lambda_C, -g_max, d_max), and lambda_C is
found exactly from the sorted breakpoints of the piecewise-linear sum of
y.  The constrained non-coherency H_i is the per-island
equality-constrained least squares of the coherency targets.

Unit convention: b0, d_max and g_max are carried in MW, so f and F are in
MW^2 and sqrt(f) is directly the imbalance in MW.  The coherency targets
c^i are unitless.  This mixed convention is what makes trade-off weights
xi of order 1e-7..1e-5 put the two objectives on comparable scales.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherency import CoherencyModel
from .netcase import OperatingPoint, PowerNetwork, incidence_matrix


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class MetricContext:
    net: PowerNetwork
    b0: np.ndarray         # MW net load vector d0 - g0 (balanced)
    c: np.ndarray          # m x n matrix of coherency targets c^i
    xi: float
    d_max: np.ndarray      # MW
    g_max: np.ndarray      # MW
    refs: tuple[int, ...]  # generator indices

    @cached_property
    def A(self) -> np.ndarray:
        """Full m x l incidence matrix, canonical order (dense, on demand)."""
        return incidence_matrix(self.net)

    @cached_property
    def C(self) -> np.ndarray:
        """A^T A / (2n), whose smallest eigenvalue bounds the submodularity ratio."""
        return self.A.T @ self.A / (2 * self.net.n)

    @cached_property
    def targets(self) -> np.ndarray:
        """Weighted target block [sqrt(xi) * b0, c^1, ..., c^n]."""
        return np.column_stack([np.sqrt(self.xi) * self.b0, self.c])

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Bus positions of the two endpoints of every line, canonical order."""
        pos = self.net.bus_pos
        branches = self.net.branches
        return (np.array([pos[br.i] for br in branches], dtype=np.intp),
                np.array([pos[br.j] for br in branches], dtype=np.intp))


def build_context(
    net: PowerNetwork,
    op: OperatingPoint,
    model: CoherencyModel,
    xi: float,
) -> MetricContext:
    if xi < 0:
        raise MetricError("trade-off weight must be nonnegative")
    n = net.n
    gen_pos = net.gen_positions()
    ref_pos = gen_pos[list(model.refs)]
    c = np.zeros((net.m, n))
    for i in range(n):
        c[gen_pos[i], i] += 1.0
        for k, sp in enumerate(ref_pos):
            c[sp, i] -= model.L[i, k]
    b0 = op.injections
    return MetricContext(
        net=net, b0=b0, c=c, xi=xi,
        d_max=net.d_max_vector(), g_max=net.g_max_vector(),
        refs=tuple(model.refs),
    )


def component_labels(ctx: MetricContext, S) -> np.ndarray:
    """Bus position -> smallest bus position in its component of (V, S)."""
    parent = list(range(ctx.net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ei, ej = (x.tolist() for x in ctx.ends)
    for e in S:
        a, b = find(ei[e]), find(ej[e])
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return np.array([find(b) for b in range(ctx.net.m)], dtype=np.intp)


def _distances(labels: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared distance of every column of V to the zero-sum-per-component span."""
    sums = np.zeros((len(labels), V.shape[1]))
    np.add.at(sums, labels, V)
    sizes = np.bincount(labels, minlength=len(labels))
    keep = sizes > 0
    return (sums[keep] ** 2 / sizes[keep, None]).sum(axis=0)


class IncrementalEvaluator:
    """Partition state of one search over edge subsets.

    Holds the kept lines S, the component label of every bus (the
    smallest bus position in its component), and per component the sum
    of the target rows T, the sum of b0 and the size.  Only the entries
    at current labels are meaningful.  gains() reads the J-decrease of
    every candidate line from these sums in one vectorized pass, add()
    merges two components and fork_without() splits one.  Owned by one
    logical search; the context itself is immutable and shared.
    """

    def __init__(self, ctx: MetricContext):
        self.ctx = ctx
        self.T = ctx.targets          # m x (n+1), weighted
        self.base = float((self.T * self.T).sum())  # J(empty set)
        m = ctx.net.m
        self.labels = np.arange(m)
        self.sums = self.T.copy()
        self.b0_sums = ctx.b0.astype(float)
        self.sizes = np.ones(m, dtype=np.intp)
        self.S: list[int] = []
        self._adj: list[list[tuple[int, int]]] | None = None

    def J(self) -> float:
        keep = self.sizes > 0
        return float(
            ((self.sums[keep] ** 2).sum(axis=1) / self.sizes[keep]).sum())

    def _merges(self, candidates):
        """Labels, sizes and merge weight n_a n_b / (n_a + n_b) per line."""
        cand = np.asarray(candidates, dtype=np.intp)
        ei, ej = self.ctx.ends
        a = self.labels[ei[cand]]
        b = self.labels[ej[cand]]
        na, nb = self.sizes[a], self.sizes[b]
        return a, b, na, nb, na * nb / (na + nb)

    def gains(self, candidates) -> np.ndarray:
        """J(S) - J(S + {e}) for each candidate edge, vectorized."""
        a, b, na, nb, w = self._merges(candidates)
        d = self.sums[a] / na[:, None] - self.sums[b] / nb[:, None]
        return w * (d * d).sum(axis=1)

    def f_gains(self, candidates) -> np.ndarray:
        """f(S) - f(S + {e}) for each candidate edge, vectorized."""
        a, b, na, nb, w = self._merges(candidates)
        d = self.b0_sums[a] / na - self.b0_sums[b] / nb
        return w * d * d

    def add(self, e: int) -> None:
        ei, ej = self.ctx.ends
        i, j = int(ei[e]), int(ej[e])
        a, b = int(self.labels[i]), int(self.labels[j])
        if a != b:
            keep, gone = min(a, b), max(a, b)
            self.labels[self.labels == gone] = keep
            for arr in (self.sums, self.b0_sums, self.sizes):
                arr[keep] += arr[gone]
                arr[gone] = 0
        if self._adj is not None:
            self._adj[i].append((j, e))
            self._adj[j].append((i, e))
        self.S.append(e)

    def fork_without(self, v: int) -> "IncrementalEvaluator":
        """Evaluator for S minus every copy of edge v; self is unchanged."""
        other = copy.copy(self)
        other.labels = self.labels.copy()
        other.sums = self.sums.copy()
        other.b0_sums = self.b0_sums.copy()
        other.sizes = self.sizes.copy()
        other.S = [e for e in self.S if e != v]
        other._adj = None
        if len(other.S) == len(self.S):
            return other
        ei, ej = self.ctx.ends
        i, j = int(ei[v]), int(ej[v])
        adj = self._adjacency()
        seen = {i}
        stack = [i]
        while stack:
            u = stack.pop()
            for w, e in adj[u]:
                if e != v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if j not in seen:   # v was a bridge: its component splits in two
            other._split(int(self.labels[i]), list(seen))
        return other

    def _adjacency(self) -> list[list[tuple[int, int]]]:
        """Bus position -> (neighbour, edge) over S, built on first use."""
        if self._adj is None:
            ei, ej = (x.tolist() for x in self.ctx.ends)
            adj: list[list[tuple[int, int]]] = [[] for _ in self.labels]
            for e in self.S:
                adj[ei[e]].append((ej[e], e))
                adj[ej[e]].append((ei[e], e))
            self._adj = adj
        return self._adj

    def _split(self, old: int, piece: list[int]) -> None:
        """Relabel component `old` as `piece` and the rest, with fresh sums."""
        members = np.flatnonzero(self.labels == old)
        inside = np.zeros(len(self.labels), dtype=bool)
        inside[piece] = True
        mask = inside[members]
        for part in (members[mask], members[~mask]):
            lab = int(part[0])   # flatnonzero is ascending
            self.labels[part] = lab
            self.sums[lab] = self.T[part].sum(axis=0)
            self.b0_sums[lab] = self.ctx.b0[part].sum()
            self.sizes[lab] = len(part)


def f(ctx: MetricContext, S) -> float:
    return float(_distances(component_labels(ctx, S), ctx.b0[:, None])[0])


def h_i(ctx: MetricContext, S, i: int) -> float:
    return float(_distances(component_labels(ctx, S), ctx.c[:, [i]])[0])


def J(ctx: MetricContext, S) -> float:
    return float(_distances(component_labels(ctx, S), ctx.targets).sum())


def _balanced_clip(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Closest y to v with sum(y) = 0 and lo <= y <= hi, for lo <= 0 <= hi.

    y = clip(v - lam, lo, hi), where sum(y) is nonincreasing and piecewise
    linear in lam with breakpoints v - hi and v - lo.  A bisection over
    the sorted breakpoints brackets the root between two adjacent ones,
    where the sum is linear, so lam follows by interpolation.
    """
    def total(lam: float) -> float:
        return float(np.clip(v - lam, lo, hi).sum())

    knots = np.unique(np.concatenate([v - hi, v - lo]))
    # total(knots[0]) = sum(hi) >= 0 >= sum(lo) = total(knots[-1])
    k_lo, k_hi = 0, len(knots) - 1
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        if total(knots[mid]) >= 0:
            k_lo = mid
        else:
            k_hi = mid
    a, b = knots[k_lo], knots[k_hi]
    ta, tb = total(a), total(b)
    lam = a if ta == tb else a + (b - a) * ta / (ta - tb)
    return np.clip(v - lam, lo, hi)


def F(ctx: MetricContext, S) -> float:
    """Constrained load-generation imbalance (MW^2).

    Distance from b0 to the intersection of span(A(S)) with the box
    [-g_max, d_max].  The limits are nonnegative, so the intersection
    contains the origin and is never empty.  The projection is exact per
    component of (V, S).
    """
    labels = component_labels(ctx, S)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    total = 0.0
    for members in np.split(order, cuts):
        v = ctx.b0[members]
        y = _balanced_clip(v, -ctx.g_max[members], ctx.d_max[members])
        total += float(((y - v) ** 2).sum())
    return total


def island_labels(ctx: MetricContext, S) -> np.ndarray | None:
    """Bus -> island index if S induces a valid r-island partition, else None."""
    net = ctx.net
    parent = list(range(net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in S:
        br = net.branches[e]
        ra, rb = find(net.bus_pos[br.i]), find(net.bus_pos[br.j])
        if ra == rb:
            return None  # cycle: not a forest
        parent[ra] = rb
    gen_pos = net.gen_positions()
    ref_roots = [find(gen_pos[i]) for i in ctx.refs]
    if len(set(ref_roots)) != len(ref_roots):
        return None  # two references share an island
    root_to_island = {rt: k for k, rt in enumerate(ref_roots)}
    labels = np.empty(net.m, dtype=int)
    for b in range(net.m):
        rt = find(b)
        if rt not in root_to_island:
            return None  # component without a reference
        labels[b] = root_to_island[rt]
    return labels


def H_i_constrained(ctx: MetricContext, S, i: int, model: CoherencyModel) -> float:
    """Constrained non-coherency of generator i under a valid partition.

    The equality constraints zero the flow mismatch at every bus other
    than u_i and the references, so within each island the feasible
    injections live on the allowed buses with zero sum.  The projection
    then has a closed per-island form.
    """
    labels = island_labels(ctx, S)
    if labels is None:
        raise MetricError("edge set does not induce a valid r-island partition")
    net = ctx.net
    gen_pos = net.gen_positions()
    allowed = {int(gen_pos[i])} | {int(gen_pos[k]) for k in ctx.refs}
    ci = ctx.c[:, i]
    total = 0.0
    for isl in range(len(ctx.refs)):
        members = np.flatnonzero(labels == isl)
        free = [b for b in members if b in allowed]
        fixed = [b for b in members if b not in allowed]
        total += float(sum(ci[b] ** 2 for b in fixed))
        if free:
            mean = float(np.mean([ci[b] for b in free]))
            total += len(free) * mean * mean
    return total


def h_contributions(ctx: MetricContext, S) -> dict:
    """Debug breakdown of J: f and each generator's h_i, JSON-ready."""
    dist = _distances(component_labels(ctx, S),
                      np.column_stack([ctx.b0, ctx.c]))
    f_val = float(dist[0])
    h = [float(x) for x in dist[1:]]
    return {
        "f": f_val,
        "h": h,
        "xi": ctx.xi,
        "J": ctx.xi * f_val + sum(h),
    }


def noncoherency(L: np.ndarray, L_g: np.ndarray) -> float:
    """Squared Frobenius distance between coherency and partition matrices."""
    if L.shape != L_g.shape:
        raise MetricError("shape mismatch between L and L_g")
    return float(np.linalg.norm(L - L_g, "fro") ** 2)


def lambda_min_C(ctx: MetricContext) -> float:
    vals = np.linalg.eigvalsh(0.5 * (ctx.C + ctx.C.T))
    return float(vals[0])


def lambda_min_sparse(ctx: MetricContext, s: int, limit: int = 200000) -> float:
    """Smallest s-sparse eigenvalue of C by exhaustive column enumeration."""
    l = ctx.C.shape[0]
    from math import comb

    if comb(l, s) > limit:
        raise MetricError(
            f"C({l},{s}) subsets exceed the exhaustive sweep limit; "
            "use the dense smallest eigenvalue instead"
        )
    best = np.inf
    for cols in itertools.combinations(range(l), s):
        sub = ctx.C[np.ix_(cols, cols)]
        best = min(best, float(np.linalg.eigvalsh(sub)[0]))
    return best


def submodularity_ratio_bound(ctx: MetricContext, k: int, U_size: int = 0) -> float:
    """Lower bound on the submodularity ratio of J: lambda_min of C.

    For small k + U_size the sharper sparse eigenvalue is available via
    lambda_min_sparse; this returns the always-valid dense bound.
    """
    if k < 1:
        raise MetricError("k must be at least 1")
    return lambda_min_C(ctx)
