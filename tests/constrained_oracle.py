"""The paper's constrained metrics, as references for the relaxed ones.

The constrained imbalance F adds the box -g_max <= y <= d_max to the
zero-sum condition.  It separates over components: in component C the
closest point is y = clip(b0 - lambda_C, -g_max, d_max), and lambda_C is
found exactly from the sorted breakpoints of the piecewise-linear sum of
y.  The constrained non-coherency H_i is the per-island
equality-constrained least squares of the coherency targets.  The tests
check that the relaxed f and h_i bound them from below; nothing in the
library calls them.  h_i, the relaxed non-coherency of one generator,
lives here too: a run only needs the sum that metrics.J adds up.
"""

import numpy as np

from gridisland.metrics import (
    MetricError,
    _distances,
    component_labels,
    island_labels,
)


def balanced_clip(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
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


def h_i(ctx, S, i: int) -> float:
    """Relaxed non-coherency of generator i: the squared distance from its
    coherency target c^i to the span of the kept lines' incidence columns."""
    return float(_distances(component_labels(ctx, S), ctx.c[:, [i]])[0])


def box_limits(net) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus (d_max, g_max) in MW, in bus-position order."""
    return (np.array([b.d_max for b in net.buses]),
            np.array([b.g_max for b in net.buses]))


def F(ctx, S, limits=None) -> float:
    """Constrained load-generation imbalance (MW^2).

    Distance from b0 to the intersection of span(A(S)) with the box
    [-g_max, d_max].  limits is (d_max, g_max), by default those of
    ctx.net.buses.  They are nonnegative, so the intersection contains the
    origin and is never empty.  The projection is exact per component of
    (V, S).
    """
    d_max, g_max = limits or box_limits(ctx.net)
    labels = component_labels(ctx, S)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    total = 0.0
    for members in np.split(order, cuts):
        v = ctx.b0[members]
        y = balanced_clip(v, -g_max[members], d_max[members])
        total += float(((y - v) ** 2).sum())
    return total


def H_i_constrained(ctx, S, i: int, model) -> float:
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
