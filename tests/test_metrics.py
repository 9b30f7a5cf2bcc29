import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from gridisland.baseline import two_step_partition
from gridisland.coherency import ModelError, build_model
from gridisland.metrics import (
    IncrementalEvaluator,
    J,
    MetricError,
    _terms,
    build_context,
    f,
    island_labels,
    noncoherency,
)
from gridisland.netcase import component_labels, incidence_matrix

from casekit import line_ends, meshed_network, pipeline, random_network
from constrained_oracle import F, H_i_constrained, box_limits, h_i
from dense_oracle import (
    dense_J,
    orthonormal_span,
    subspace_distance_sq,
    weighted_targets,
)
from matroid_oracle import (
    island_labels_reference,
    lambda_min_C,
    lambda_min_sparse,
    random_basis,
    submodularity_ratio_bound,
    submodularity_ratio_min,
)


def lstsq_distance_sq(A_S, v):
    x, _, _, _ = np.linalg.lstsq(A_S, v, rcond=None)
    return float(np.sum((A_S @ x - v) ** 2))


def assert_metrics_match_oracles(ctx, S):
    """f, every h_i and J of S against least squares, and f and J against
    the Gram-Schmidt projection of the weighted target block."""
    A_S = incidence_matrix(ctx.net, S)
    T = weighted_targets(ctx)
    assert f(ctx, S) == pytest.approx(lstsq_distance_sq(A_S, ctx.b0), abs=1e-6)
    for i in range(ctx.net.n):
        assert h_i(ctx, S, i) == pytest.approx(
            lstsq_distance_sq(A_S, T[:, 1 + i]), abs=1e-9)
    expect = ctx.xi * lstsq_distance_sq(A_S, ctx.b0) + sum(
        lstsq_distance_sq(A_S, T[:, 1 + i]) for i in range(ctx.net.n))
    assert J(ctx, S) == pytest.approx(expect, abs=1e-6)
    tol = 1e-9 * max(1.0, dense_J(ctx, []))
    assert J(ctx, S) == pytest.approx(dense_J(ctx, S), abs=tol)
    f_tol = 1e-9 * max(1.0, float(ctx.b0 @ ctx.b0))
    assert f(ctx, S) == pytest.approx(
        subspace_distance_sq(A_S, ctx.b0), abs=f_tol)


def references_per_island(ctx, labels):
    """How many references each island of a bus labelling holds."""
    return np.bincount(labels[ctx.ref_pos], minlength=labels.max() + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_relaxed_metrics_match_lstsq_oracle(seed):
    # a random kept set, and the baseline's islands, which may hold no
    # reference or several (the statistics J reads R as a vector); that
    # happens on about one draw in seven
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(3, 7))
    net = random_network(rng, m=int(rng.integers(n_gens + 1, 11)),
                         extra_edges=int(rng.integers(0, 4)), n_gens=n_gens)
    xi = float(rng.choice([0.0, 1e-7, 1e-6, 1e-5]))
    op, model, ctx = pipeline(net, r=3, xi=xi)
    size = int(rng.integers(1, net.l + 1))
    S = sorted(rng.choice(net.l, size=size, replace=False).tolist())
    assert_metrics_match_oracles(ctx, S)
    split = two_step_partition(net, op, model)
    assert_metrics_match_oracles(ctx, list(split.kept))


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("r", [5, 7])
def test_relaxed_metrics_match_oracles_on_meshed_baseline_islands(draw, r):
    # the benchmark's meshed-120 draws; at these r some of the baseline's
    # islands there hold no reference and others two or three
    net = meshed_network(draw)
    op, model, ctx = pipeline(net, r=r, xi=1e-6)
    split = two_step_partition(net, op, model)
    assert (references_per_island(ctx, split.labels) != 1).any()
    assert_metrics_match_oracles(ctx, list(split.kept))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_forest_distance_closed_form(seed):
    # on a forest, span(A(S)) is exactly the vectors with zero sum per
    # connected component, so the squared distance is sum over components
    # of |component| * mean(b)^2
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 12)),
                         extra_edges=int(rng.integers(0, 4)))
    op, model, ctx = pipeline(net, r=3, xi=0.0)
    S = random_basis(rng, net, ctx)
    labels = island_labels(ctx, S)
    b = ctx.b0
    expect = 0.0
    for k in range(len(ctx.refs)):
        comp = np.flatnonzero(labels == k)
        expect += len(comp) * float(np.mean(b[comp])) ** 2
    assert f(ctx, S) == pytest.approx(expect, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_island_labels_match_union_find_reference(seed):
    # the rooted walk and the union-find count agree on bases, on sets one
    # line off a basis either way, on repeated lines, on any line order,
    # and on references the basis was not built for
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(2, 6))   # so that other references exist
    net = random_network(rng, m=int(rng.integers(n_gens, 13)),
                         extra_edges=int(rng.integers(0, 5)), n_gens=n_gens)
    r = int(rng.integers(1, n_gens + 1))
    refs = tuple(rng.choice(n_gens, size=r, replace=False).tolist())
    _, _, ctx = pipeline(net, r=r, refs=refs)
    others = refs
    while others == refs:
        others = tuple(rng.choice(
            n_gens, size=int(rng.integers(1, n_gens + 1)),
            replace=False).tolist())
    S = random_basis(rng, net, ctx)
    cases = [(ctx, S), (ctx, S[::-1]), (ctx, tuple(S)), (ctx, []),
             (ctx, list(range(net.l))),
             (dataclasses.replace(ctx, refs=others), S)]
    out = np.setdiff1d(np.arange(net.l), S)
    if len(out):
        cases.append((ctx, S + [int(rng.choice(out))]))
    if S:
        k = int(rng.integers(len(S)))
        cases += [(ctx, S[:k] + S[k + 1:]), (ctx, S + [S[k]])]
    for c, lines in cases:
        got, want = island_labels(c, lines), island_labels_reference(c, lines)
        assert (got is None) == (want is None), (c.refs, lines)
        if want is not None:
            np.testing.assert_array_equal(got, want)


def test_subspace_distance_basics():
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
    v = np.array([1.0, -1.0, 0.0])
    assert subspace_distance_sq(A, v) == pytest.approx(0.0, abs=1e-12)
    w = np.array([1.0, 1.0, 1.0])
    assert subspace_distance_sq(A, w) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(MetricError):
        subspace_distance_sq(A, np.ones(2))


def test_orthonormal_span_drops_dependent_columns():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    Q = orthonormal_span(A)
    assert Q.shape[1] == 2
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("xi", [float("nan"), float("inf"), -1.0, -1e-300])
def test_build_context_rejects_a_weight_that_is_not_finite_and_nonnegative(
        pipe39, case39, xi):
    # the CLI's rule; a NaN or inf weight would reach the greedy and end
    # in numpy's argmax of an empty sequence
    op, model, _ = pipe39
    with pytest.raises(MetricError,
                       match="^trade-off weight must be finite and nonnegative$"):
        build_context(case39, op, model, xi)


@pytest.mark.parametrize("refs", [(0, 0, 4), (0, 99, 4), (0.0, 4, 8)])
def test_build_context_checks_references_by_build_models_rule(
        pipe39, case39, refs):
    # coherency.check_references is the one rule: build_context refuses
    # what build_model refuses, with the same ModelError and message
    op, model, _ = pipe39
    with pytest.raises(ModelError) as want:
        build_model(case39, op, refs)
    with pytest.raises(ModelError) as got:
        build_context(case39, op, dataclasses.replace(model, refs=refs), 1e-6)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("references must be distinct generator "
                                     "indices in [0, 10), got ")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_constrained_imbalance_matches_qp_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(5, 9)), extra_edges=2)
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    S = random_basis(rng, net, ctx)
    got = F(ctx, S)
    d_max, g_max = box_limits(net)
    Q = orthonormal_span(incidence_matrix(net, S))

    def obj(z):
        y = Q @ z
        return float((y - ctx.b0) @ (y - ctx.b0))

    cons = [
        {"type": "ineq", "fun": lambda z: d_max - Q @ z},
        {"type": "ineq", "fun": lambda z: Q @ z + g_max},
    ]
    res = minimize(obj, np.zeros(Q.shape[1]), constraints=cons,
                   method="SLSQP", options={"maxiter": 500, "ftol": 1e-12})
    assert got == pytest.approx(res.fun, rel=1e-4, abs=1e-4)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_constrained_coherency_matches_kkt_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(5, 9)), extra_edges=2)
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    S = random_basis(rng, net, ctx)
    A_S = incidence_matrix(net, S)
    gen_pos = net.gen_pos
    for i in range(net.n):
        got = H_i_constrained(ctx, S, i, model)
        allowed = {int(gen_pos[i])} | {int(gen_pos[k]) for k in ctx.refs}
        dis = [b for b in range(net.m) if b not in allowed]
        Pm = np.zeros((len(dis), net.m))
        for row, b in enumerate(dis):
            Pm[row, b] = 1.0
        c = weighted_targets(ctx)[:, 1 + i]
        top = np.hstack([2 * A_S.T @ A_S, (Pm @ A_S).T])
        bot = np.hstack([Pm @ A_S, np.zeros((len(dis), len(dis)))])
        sol, _, _, _ = np.linalg.lstsq(np.vstack([top, bot]),
                                       np.concatenate([2 * A_S.T @ c,
                                                       np.zeros(len(dis))]),
                                       rcond=None)
        x = sol[: len(S)]
        if np.abs(Pm @ A_S @ x).max() > 1e-6:
            continue  # degenerate KKT system, oracle not trustworthy
        assert got == pytest.approx(float(np.sum((A_S @ x - c) ** 2)),
                                    rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_relaxations_lower_bound_constrained_metrics(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(5, 10)),
                         extra_edges=int(rng.integers(0, 3)))
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    S = random_basis(rng, net, ctx)
    assert f(ctx, S) <= F(ctx, S) + 1e-9
    for i in range(net.n):
        assert h_i(ctx, S, i) <= H_i_constrained(ctx, S, i, model) + 1e-9


def test_constrained_coherency_closed_form(pipe39, case39):
    # with one reference per island the per-generator value reduces to
    # (1 - L_ij)^2 / 2 + sum over the other islands of L_ik^2
    op, model, ctx = pipe39
    rng = np.random.default_rng(0)
    S = random_basis(rng, case39, ctx)
    labels = island_labels(ctx, S)
    gen_pos = case39.gen_pos
    for i in range(case39.n):
        if i in ctx.refs:
            continue
        j = int(labels[gen_pos[i]])
        # island j must hold exactly one reference for the closed form
        ref_island = {int(labels[gen_pos[k]]): col
                      for col, k in enumerate(ctx.refs)}
        col = ref_island[j]
        expect = 0.5 * (1.0 - model.L[i, col]) ** 2 + sum(
            model.L[i, c] ** 2 for c in range(3) if c != col)
        assert H_i_constrained(ctx, S, i, model) == pytest.approx(
            expect, rel=1e-9, abs=1e-9)


def test_constrained_metrics_reject_invalid_partition(pipe39):
    op, model, ctx = pipe39
    with pytest.raises(MetricError, match="partition"):
        H_i_constrained(ctx, [0, 1], 0, model)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_closed_form_evaluator_matches_dense_oracle(seed):
    # random kept sets that close cycles; every state is checked against
    # the Gram-Schmidt projection of the targets onto span(A(S))
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 11)),
                         extra_edges=int(rng.integers(1, 6)))
    xi = float(rng.choice([0.0, 1e-7, 1e-6, 1e-5]))
    op, model, ctx = pipeline(net, r=3, xi=xi)
    tol = 1e-9 * max(1.0, dense_J(ctx, []))
    everything = list(range(net.l))

    def check(ev, S):
        want = dense_J(ctx, S)
        assert ev.S == S
        assert ev.J() == pytest.approx(want, abs=tol)
        for e, g in zip(everything, ev.gains(everything)):
            assert g == pytest.approx(want - dense_J(ctx, S + [e]), abs=tol)
            if e in S:
                assert g == 0.0
        np.testing.assert_array_equal(ev.labels, component_labels(net, S))

    ev = IncrementalEvaluator(ctx)
    S = []
    check(ev, S)
    for e in rng.permutation(net.l)[: int(rng.integers(1, net.l + 1))]:
        ev.add(int(e))
        S.append(int(e))
        check(ev, S)
    for v in sorted(set(S)):
        forked = ev.fork_without(v)
        kept = [x for x in S if x != v]
        check(forked, kept)
        e = int(rng.integers(0, net.l))
        forked.add(e)
        check(forked, kept + [e])
        check(forked.fork_without(e), [x for x in kept if x != e])
    check(ev, S)   # forks leave the original intact


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_swap_values_and_cut_match_dense_oracle(seed):
    # every swap out of every kept line of a random basis is checked
    # against the Gram-Schmidt projection, and so is the state cut()
    # leaves behind
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 11)),
                         extra_edges=int(rng.integers(1, 6)))
    xi = float(rng.choice([0.0, 1e-7, 1e-6, 1e-5]))
    op, model, ctx = pipeline(net, r=3, xi=xi)
    S = random_basis(rng, net, ctx)
    tol = 1e-9 * max(1.0, dense_J(ctx, []))
    ev = IncrementalEvaluator(ctx)
    for e in S:
        ev.add(e)
    ei, ej = net.ends

    def cut_off(v):
        """S without v, its component labels, and the buses that removing
        v cuts off from their reference."""
        rest = [x for x in S if x != v]
        labels = component_labels(net, rest)
        lost = [lab for lab in labels[[ei[v], ej[v]]]
                if lab not in labels[ctx.ref_pos]]
        assert len(lost) == 1
        return rest, labels, labels == lost[0]

    for v in S:
        rest, _, below = cut_off(v)
        cand = [e for e in range(net.l)
                if e not in S and below[ei[e]] != below[ej[e]]]
        got = ev.swap_J(np.flatnonzero(below), cand, ev.J())
        assert len(got) == len(cand)
        for e, value in zip(cand, got):
            assert value == pytest.approx(dense_J(ctx, rest + [e]), abs=tol)
    v = S[int(rng.integers(len(S)))]
    rest, labels, below = cut_off(v)
    ev.cut(v, np.flatnonzero(below))
    assert ev.S == rest
    np.testing.assert_array_equal(ev.labels, labels)
    assert ev.J() == pytest.approx(dense_J(ctx, rest), abs=tol)
    fresh = IncrementalEvaluator(ctx)
    for e in rest:
        fresh.add(e)
    everything = list(range(net.l))
    np.testing.assert_allclose(ev.gains(everything), fresh.gains(everything),
                               rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=30))
@example(seed=5819, steps=[(False, 0)])
def test_J_terms_sum_to_the_block_after_adds_and_cuts(seed, steps):
    # J() sums one term per island, and add() and cut() keep the terms,
    # the statistics means and h = G / n^2 up for the islands they touch;
    # each must give the bits of recomputing it from the block of island
    # statistics sums.  From 8 columns (r >= 3) numpy sums a row pairwise,
    # unlike a dot product
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(3, 13))
    net = random_network(rng, m=int(rng.integers(n_gens + 1, 20)),
                         extra_edges=int(rng.integers(0, 6)), n_gens=n_gens)
    xi = float(rng.choice([0.0, 1e-7, 1e-6, 1e-5]))
    _, _, ctx = pipeline(net, r=int(rng.integers(2, min(n_gens, 9) + 1)),
                         xi=xi)
    ev = IncrementalEvaluator(ctx)
    ei, ej = net.ends

    def check():
        k = ev.sizes > 0
        sums, sizes = ev.sums[k], ev.sizes[k]
        assert ev.J() == float(_terms(ctx.form, sums, sizes).sum())
        np.testing.assert_array_equal(ev.mu[k], sums / sizes[:, None])
        np.testing.assert_array_equal(ev.h[k], sums[:, 1] / (sizes * sizes))

    check()
    for cut, pick in steps:
        bridges = []
        for v in sorted(set(ev.S)):
            rest = list(ev.S)
            rest.remove(v)
            labels = component_labels(net, rest)
            if labels[ei[v]] != labels[ej[v]]:
                bridges.append((v, np.flatnonzero(labels == labels[ei[v]])))
        if cut and bridges:
            ev.cut(*bridges[pick % len(bridges)])
        else:
            ev.add(pick % net.l)
        np.testing.assert_array_equal(ev.labels, component_labels(net, ev.S))
        check()


def test_sparse_eigenvalue_matches_dense_at_full_size(pipe39):
    rng = np.random.default_rng(3)
    net = random_network(rng, m=5, extra_edges=1)
    op, model, ctx = pipeline(net, r=2, xi=0.0)
    dense = lambda_min_C(ctx)
    assert lambda_min_sparse(ctx, net.l) == pytest.approx(dense, abs=1e-9)
    # sparse minima decrease toward the dense value as s grows
    vals = [lambda_min_sparse(ctx, s) for s in range(1, net.l + 1)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_sparse_eigenvalue_enumeration_limit(pipe118):
    _, _, ctx = pipe118
    with pytest.raises(MetricError, match="exhaustive"):
        lambda_min_sparse(ctx, 10)


def test_submodularity_ratio_bound_validates_input(pipe39):
    _, _, ctx = pipe39
    with pytest.raises(MetricError):
        submodularity_ratio_bound(ctx, 0)
    assert submodularity_ratio_bound(ctx, 3) == pytest.approx(
        lambda_min_C(ctx))


def test_full_edge_set_has_zero_imbalance(pipe39):
    # injections balance, so the connected full graph absorbs b0 exactly
    _, _, ctx = pipe39
    # b0 is in MW (norm ~1e3), so the squared residual floor is ~1e-9
    assert f(ctx, range(ctx.net.l)) <= 1e-12 * float(ctx.b0 @ ctx.b0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_metrics_monotone_along_growing_chains(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 10)),
                         extra_edges=int(rng.integers(0, 4)))
    op, model, ctx = pipeline(net, r=2, xi=1e-6)
    order = [int(e) for e in rng.permutation(net.l)]
    prev_f, prev_J = None, None
    for cut in range(1, net.l + 1):
        S = order[:cut]
        fv, Jv = f(ctx, S), J(ctx, S)
        if prev_f is not None:
            assert fv <= prev_f + 1e-9
            assert Jv <= prev_J + 1e-9
        prev_f, prev_J = fv, Jv


def test_objective_linear_in_trade_off_weight(pipe39, case39):
    op, model, ctx1 = pipe39
    ctx2 = build_context(case39, op, model, 5e-6)
    rng = np.random.default_rng(2)
    S = random_basis(rng, case39, ctx1)
    base_h = J(ctx1, S) - ctx1.xi * f(ctx1, S)
    assert J(ctx2, S) == pytest.approx(base_h + 5e-6 * f(ctx2, S), abs=1e-9)
    assert f(ctx1, S) == pytest.approx(f(ctx2, S), abs=1e-12)


def test_constrained_imbalance_inactive_box_equals_relaxation(pipe39, case39):
    # balloon the limits so the box constraint can never bind
    op, model, ctx = pipe39
    big = np.full(case39.m, 1e9)
    rng = np.random.default_rng(5)
    S = random_basis(rng, case39, ctx)
    assert F(ctx, S, limits=(big, big)) == pytest.approx(
        f(ctx, S), abs=1e-6 * max(1.0, f(ctx, S)))


def test_constrained_imbalance_zero_when_island_balanced(case39):
    # a single island holding the whole balanced system sheds nothing
    op, model, ctx = pipeline(case39, r=1, xi=0.0)
    P_edges = []
    seen = {int(case39.bus_ids[0])}
    while len(seen) < case39.m:
        for k, (i, j) in enumerate(line_ends(case39)):
            if k not in P_edges and ((i in seen) != (j in seen)):
                P_edges.append(k)
                seen.update((i, j))
    assert F(ctx, P_edges) == pytest.approx(0.0, abs=1e-6)


def test_noncoherency_zero_at_exact_partition():
    L = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert noncoherency(L, L.copy()) == 0.0
    with pytest.raises(MetricError):
        noncoherency(L, np.eye(2))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerated_submodularity_ratio_respects_bound(seed):
    # exhaustive check of the gain-function submodularity ratio on a
    # graph small enough to enumerate every (L, S) pair
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=5, extra_edges=int(rng.integers(0, 3)),
                         n_gens=2)
    op, model, ctx = pipeline(net, r=2, xi=1e-7)
    assert submodularity_ratio_min(ctx) >= lambda_min_C(ctx) - 1e-9
