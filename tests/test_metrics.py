import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from gridisland.metrics import (
    IncrementalEvaluator,
    J,
    MetricError,
    build_context,
    f,
    island_labels,
    noncoherency,
    component_labels,
)
from gridisland.netcase import incidence_matrix

from casekit import pipeline, random_network
from constrained_oracle import F, H_i_constrained, box_limits, h_i
from dense_oracle import dense_J, orthonormal_span, subspace_distance_sq
from matroid_oracle import (
    lambda_min_C,
    lambda_min_sparse,
    random_basis,
    submodularity_ratio_bound,
    submodularity_ratio_min,
)


def lstsq_distance_sq(A_S, v):
    x, _, _, _ = np.linalg.lstsq(A_S, v, rcond=None)
    return float(np.sum((A_S @ x - v) ** 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_relaxed_metrics_match_lstsq_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 10)),
                         extra_edges=int(rng.integers(0, 4)))
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    size = int(rng.integers(1, net.l + 1))
    S = sorted(rng.choice(net.l, size=size, replace=False).tolist())
    A_S = incidence_matrix(net, S)
    assert f(ctx, S) == pytest.approx(lstsq_distance_sq(A_S, ctx.b0), abs=1e-6)
    for i in range(net.n):
        assert h_i(ctx, S, i) == pytest.approx(
            lstsq_distance_sq(A_S, ctx.c[:, i]), abs=1e-9)
    expect = ctx.xi * lstsq_distance_sq(A_S, ctx.b0) + sum(
        lstsq_distance_sq(A_S, ctx.c[:, i]) for i in range(net.n))
    assert J(ctx, S) == pytest.approx(expect, abs=1e-6)


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


def test_build_context_rejects_negative_weight(case39):
    from gridisland.netcase import dc_power_flow
    from gridisland.coherency import build_model

    op = dc_power_flow(case39)
    model = build_model(case39, op, 3, [0, 4, 8])
    with pytest.raises(MetricError):
        build_context(case39, op, model, -1.0)


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
    gen_pos = net.gen_positions()
    for i in range(net.n):
        got = H_i_constrained(ctx, S, i, model)
        allowed = {int(gen_pos[i])} | {int(gen_pos[k]) for k in ctx.refs}
        dis = [b for b in range(net.m) if b not in allowed]
        Pm = np.zeros((len(dis), net.m))
        for row, b in enumerate(dis):
            Pm[row, b] = 1.0
        c = ctx.c[:, i]
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
    gen_pos = case39.gen_positions()
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
        np.testing.assert_array_equal(ev.labels, component_labels(ctx, S))

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
    ei, ej = ctx.ends

    def cut_off(v):
        """S without v, its component labels, and the buses that removing
        v cuts off from their reference."""
        rest = [x for x in S if x != v]
        labels = component_labels(ctx, rest)
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
    seen = {case39.buses[0].id}
    while len(seen) < case39.m:
        for k, br in enumerate(case39.branches):
            if k not in P_edges and ((br.i in seen) != (br.j in seen)):
                P_edges.append(k)
                seen.update((br.i, br.j))
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
