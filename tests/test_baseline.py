import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.baseline import (
    BaselineError,
    _exhaustive_bipartition,
    _fiedler_sweep,
    constrained_mincut,
    coupling_weights,
    generator_bipartition,
    two_step_islanding,
)
from gridisland.netcase import OperatingPoint, dc_power_flow, parse_case

from casekit import pipeline, random_network


def test_coupling_weights_symmetric_nonnegative(pipe39, case39):
    _, model, _ = pipe39
    W = coupling_weights(case39, model)
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    assert W.min() >= 0.0
    assert np.all(np.diag(W) == 0.0)


def test_barbell_splits_across_weak_tie():
    # two tight pairs joined by one weak coupling
    W = np.array([
        [0.0, 5.0, 0.1, 0.0],
        [5.0, 0.0, 0.0, 0.0],
        [0.1, 0.0, 0.0, 5.0],
        [0.0, 0.0, 5.0, 0.0],
    ])
    t1, t2, val = generator_bipartition(W)
    assert {tuple(sorted(t1)), tuple(sorted(t2))} == {(0, 1), (2, 3)}
    assert val == pytest.approx(0.1)


def test_disconnected_coupling_graph_returns_components():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    t1, t2, val = generator_bipartition(W)
    assert val == 0.0
    assert {tuple(sorted(t1)), tuple(sorted(t2))} == {(0, 1), (2, 3)}


def test_bipartition_needs_two_nodes():
    with pytest.raises(BaselineError):
        generator_bipartition(np.zeros((1, 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_bipartition_achieves_exhaustive_minimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    W = rng.uniform(0.0, 1.0, size=(n, n))
    W = np.triu(W, 1)
    W = W + W.T
    _, _, val = generator_bipartition(W)
    best = min(
        float(W[np.ix_(list(side), [k for k in range(n) if k not in side])].sum())
        for size in range(1, n // 2 + 1)
        for side in itertools.combinations(range(n), size)
    )
    assert val == pytest.approx(best, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_fiedler_sweep_upper_bounds_exhaustive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    W = rng.uniform(0.0, 1.0, size=(n, n))
    W = np.triu(W, 1)
    W = W + W.T
    _, sweep_val = _fiedler_sweep(W)
    _, exact_val = _exhaustive_bipartition(W)
    assert exact_val <= sweep_val + 1e-9


def line_net(ids, gen_buses):
    doc = {
        "base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": gen_buses[0],
        "buses": [{"id": b, "pd_mw": 0.0 if b in gen_buses else 10.0}
                  for b in ids],
        "branches": [{"from": a, "to": b, "x_pu": 0.1}
                     for a, b in zip(ids, ids[1:])],
        "gens": [{"bus": b, "pg_mw": 10.0, "inertia_s": 5.0,
                  "xd_prime_pu": 0.1} for b in gen_buses],
    }
    return parse_case(json.dumps(doc))


def test_mincut_bridge():
    net = line_net([1, 2, 3, 4], [1, 4])
    op = dc_power_flow(net)
    S1, S2, cut = constrained_mincut(net, op, {1, 2}, {3, 4})
    assert S1 == {1, 2} and S2 == {3, 4}
    assert [net.branches[k].name for k in cut] == ["2-3"]


def test_mincut_rejects_bad_constraint_sets(case39):
    op = dc_power_flow(case39)
    with pytest.raises(BaselineError, match="overlap"):
        constrained_mincut(case39, op, {1, 2}, {2, 3})
    with pytest.raises(BaselineError, match="nonempty"):
        constrained_mincut(case39, op, set(), {2})


def test_mincut_flow_mismatch_is_a_typed_error(monkeypatch):
    # a max-flow value that disagrees with the cut it induces must raise
    # BaselineError, which the CLI reports, even under python -O
    import gridisland.baseline as baseline

    real = baseline.shortest_augmenting_path

    def off_by_one(G, s, t):
        R = real(G, s, t)
        R.graph["flow_value"] += 1.0
        return R

    monkeypatch.setattr(baseline, "shortest_augmenting_path", off_by_one)
    net = line_net([1, 2, 3, 4], [1, 4])
    with pytest.raises(BaselineError, match="disagrees"):
        constrained_mincut(net, dc_power_flow(net), {1, 2}, {3, 4})


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_mincut_equal_capacities_minimizes_edge_count(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 9)),
                         extra_edges=int(rng.integers(0, 4)), n_gens=2)
    op = dc_power_flow(net)
    unit = OperatingPoint(
        angles=op.angles, flows=np.ones(net.l),
        injections=op.injections, g0_balanced=op.g0_balanced,
    )
    T1 = {net.gens[0].bus}
    T2 = {net.gens[1].bus}
    _, _, cut = constrained_mincut(net, unit, T1, T2)
    # exhaustive: all bus splits respecting the constraints
    others = [b.id for b in net.buses if b.id not in T1 | T2]
    best = net.l + 1
    for bits in itertools.product([0, 1], repeat=len(others)):
        side1 = set(T1) | {b for b, s in zip(others, bits) if s == 0}
        count = sum(
            (br.i in side1) != (br.j in side1) for br in net.branches
        )
        best = min(best, count)
    assert len(cut) == best


def test_case39_first_split_isolates_equivalent_unit(pipe39, case39):
    # the big external-equivalent machine at bus 39 is the most weakly
    # coupled unit and comes off first
    _, model, _ = pipe39
    W = coupling_weights(case39, model)
    t1, t2, _ = generator_bipartition(W)
    sides = {frozenset(case39.gens[i].bus for i in side) for side in (t1, t2)}
    assert frozenset({39}) in sides


def test_two_step_needs_r_at_least_two(pipe39, case39):
    op, model, ctx = pipe39
    with pytest.raises(BaselineError):
        two_step_islanding(case39, op, model, ctx, 1)


def test_two_step_structure_case39(pipe39, case39):
    op, model, ctx = pipe39
    sol = two_step_islanding(case39, op, model, ctx, 3)
    assert sol.method == "spectral"
    assert len(sol.islands) == 3
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(b.id for b in case39.buses)
    all_gens = sorted(i for g in sol.groups for i in g)
    assert all_gens == list(range(case39.n))
    # generators sit on buses of their own island
    for isl, grp in zip(sol.islands, sol.groups):
        for i in grp:
            assert case39.gens[i].bus in isl
    # the reported cutset disconnects exactly along island boundaries
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    crossing = sorted(br.name for br in case39.branches
                      if island_of[br.i] != island_of[br.j])
    assert sorted(sol.cutset) == crossing


def test_two_step_deterministic(pipe39, case39):
    op, model, ctx = pipe39
    a = two_step_islanding(case39, op, model, ctx, 3)
    b = two_step_islanding(case39, op, model, ctx, 3)
    assert a.cutset == b.cutset and a.J_value == b.J_value


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_two_step_structure_random(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    net = random_network(rng, m=int(rng.integers(r + 3, 14)),
                         extra_edges=int(rng.integers(0, 5)), n_gens=r + 1)
    op, model, ctx = pipeline(net, r=r)
    sol = two_step_islanding(net, op, model, ctx, r)
    assert len(sol.islands) == r
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(b.id for b in net.buses)
