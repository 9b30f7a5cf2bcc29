import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.islanding import (
    IslandingError,
    PartitionSet,
    check_greedy_bound,
    enumerate_bases,
    extract_solution,
    greedy_select,
    local_search,
    local_search_iteration_cap,
    solve,
)
from gridisland.metrics import IncrementalEvaluator, J
from gridisland.netcase import incidence_matrix, parse_case

from casekit import DATA, pipeline, random_case_doc, random_network


def assert_structural(net, sol, r):
    assert len(sol.S) == net.m - r
    assert len(sol.islands) == r
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(b.id for b in net.buses)
    # one reference generator per island
    gens_by_island = [set(g) for g in sol.groups]
    for k in range(r):
        refs_here = [i for i in range(net.n) if sol.L_g[i].argmax() == k
                     and sol.L_g[i, k] == 1.0]
        assert len(refs_here) >= 1
    # kept edges never cross island boundaries
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    for e in sol.S:
        br = net.branches[e]
        assert island_of[br.i] == island_of[br.j]
    # reported cutset = exactly the crossing edges
    crossing = sorted(
        br.name for br in net.branches if island_of[br.i] != island_of[br.j]
    )
    assert sorted(sol.cutset) == crossing


def triangle_net():
    import json

    from gridisland.netcase import parse_case

    doc = {
        "base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": 1,
        "buses": [{"id": b, "pd_mw": 10.0 * (b > 1)} for b in (1, 2, 3)],
        "branches": [{"from": 1, "to": 2, "x_pu": 0.1},
                     {"from": 1, "to": 3, "x_pu": 0.1},
                     {"from": 2, "to": 3, "x_pu": 0.1}],
        "gens": [{"bus": 1, "pg_mw": 20.0, "inertia_s": 5.0,
                  "xd_prime_pu": 0.1}],
    }
    return parse_case(json.dumps(doc))


def test_partition_set_rejects_cycle():
    net = triangle_net()
    with pytest.raises(IslandingError, match="cycle"):
        PartitionSet(net, (1,), S=[0, 1, 2])
    P = PartitionSet(net, (1,), S=[0, 1])
    assert not P.feasible(2)


def test_duplicate_references_rejected(pipe39, case39):
    _, model, ctx = pipe39
    with pytest.raises(IslandingError, match="distinct"):
        greedy_select(ctx, case39, (39, 39, 34))


def test_greedy_trace_non_increasing(pipe39, case39):
    _, model, ctx = pipe39
    P, ev, trace = greedy_select(ctx, case39, (39, 34, 38))
    assert len(P.S) == case39.m - 3
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    assert ev.J() == pytest.approx(J(ctx, P.S), abs=1e-6)


def test_local_search_never_worse(pipe39, case39):
    _, model, ctx = pipe39
    P, ev, trace = greedy_select(ctx, case39, (39, 34, 38))
    before = ev.J()
    P2, ev2, strace, swaps = local_search(ctx, P, ev, epsilon=1e-3)
    assert ev2.J() <= before + 1e-9
    assert len(P2.S) == len(P.S)
    assert swaps == len(strace)


def test_local_search_rejects_bad_epsilon(pipe39, case39):
    _, model, ctx = pipe39
    P, ev, _ = greedy_select(ctx, case39, (39, 34, 38))
    with pytest.raises(IslandingError):
        local_search(ctx, P, ev, epsilon=0.0)


def test_solution_structure_case39(pipe39, case39):
    _, model, ctx = pipe39
    sol = solve(ctx, case39, model)
    assert_structural(case39, sol, 3)
    d = sol.as_dict()
    assert set(d) >= {"cutset", "islands", "J", "sqrt_f_mw", "H_bar", "trace"}


def test_solution_deterministic(pipe39, case39):
    _, model, ctx = pipe39
    a = solve(ctx, case39, model)
    b = solve(ctx, case39, model)
    assert a.S == b.S and a.cutset == b.cutset
    assert a.J_value == b.J_value


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_solution_structure_random(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    net = random_network(rng, m=int(rng.integers(r + 2, 16)),
                         extra_edges=int(rng.integers(0, 6)), n_gens=r)
    op, model, ctx = pipeline(net, r=r)
    sol = solve(ctx, net, model)
    assert_structural(net, sol, r)


def path_net(n_bus, gen_buses):
    import json

    from gridisland.netcase import parse_case

    ids = list(range(1, n_bus + 1))
    doc = {
        "base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": gen_buses[0],
        "buses": [{"id": b, "pd_mw": 0.0 if b in gen_buses else 50.0}
                  for b in ids],
        "branches": [{"from": a, "to": b, "x_pu": 0.1}
                     for a, b in zip(ids, ids[1:])],
        "gens": [{"bus": b, "pg_mw": 50.0, "inertia_s": 5.0,
                  "xd_prime_pu": 0.1} for b in gen_buses],
    }
    return parse_case(json.dumps(doc))


def test_all_buses_referenced_keeps_nothing():
    # every bus carries a generator and anchors its own island
    import json

    from gridisland.netcase import parse_case

    doc = json.loads(
        '{"base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": 1,'
        '"buses": [{"id": 1, "pd_mw": 0.0}, {"id": 2, "pd_mw": 0.0},'
        '{"id": 3, "pd_mw": 0.0}],'
        '"branches": [{"from": 1, "to": 2, "x_pu": 0.1},'
        '{"from": 1, "to": 3, "x_pu": 0.1},'
        '{"from": 2, "to": 3, "x_pu": 0.1}],'
        '"gens": []}')
    for b in (1, 2, 3):
        doc["gens"].append({"bus": b, "pg_mw": 0.0, "inertia_s": 5.0,
                            "xd_prime_pu": 0.1})
    net = parse_case(json.dumps(doc))
    op, model, ctx = pipeline(net, r=3, refs=(0, 1, 2))
    P, ev, trace = greedy_select(ctx, net, (1, 2, 3))
    assert P.S == []


def test_path_graph_two_end_references_cuts_best_edge():
    net = path_net(4, [1, 4])
    op, model, ctx = pipeline(net, r=2, refs=(0, 1))
    P, ev, _ = greedy_select(ctx, net, (1, 4))
    assert len(P.S) == 2
    got = J(ctx, P.S)
    best = min(
        J(ctx, [e for e in range(net.l) if e != cut]) for cut in range(net.l)
    )
    assert got == pytest.approx(best, abs=1e-9)


def test_local_search_epsilon_one_changes_nothing(pipe39, case39):
    _, model, ctx = pipe39
    P, ev, _ = greedy_select(ctx, case39, (39, 34, 38))
    before = sorted(P.S)
    P2, ev2, trace, swaps = local_search(ctx, P, ev, epsilon=1.0)
    assert swaps == 0 and sorted(P2.S) == before


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_local_search_output_is_epsilon_locally_optimal(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=6, extra_edges=int(rng.integers(1, 4)),
                         n_gens=2)
    op, model, ctx = pipeline(net, r=2, xi=1e-6)
    refs = tuple(net.gens[i].bus for i in model.refs)
    P, ev, _ = greedy_select(ctx, net, refs)
    eps = 1e-6
    P, ev, _, _ = local_search(ctx, P, ev, epsilon=eps)
    final = ev.J()
    if final <= 1e-12 * IncrementalEvaluator(ctx).base:
        return  # numerically zero, nothing left to improve
    for v in sorted(P.S):
        for e in range(net.l):
            if e in P.S:
                continue
            new_S = [x for x in P.S if x != v] + [e]
            try:
                PartitionSet(net, refs, S=new_S)
            except IslandingError:
                continue
            assert J(ctx, new_S) >= (1 - eps) * final - 1e-12


def basis_oracle(net, ref_buses, combo):
    A_S = incidence_matrix(net, combo)
    if np.linalg.matrix_rank(A_S) != len(combo):
        return False
    # components via the kept edges
    parent = list(range(net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in combo:
        br = net.branches[e]
        parent[find(net.bus_pos[br.i])] = find(net.bus_pos[br.j])
    roots = {find(p) for p in range(net.m)}
    ref_roots = {find(net.bus_pos[b]) for b in ref_buses}
    return len(ref_roots) == len(ref_buses) and roots == ref_roots


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerate_bases_matches_rank_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=5, extra_edges=int(rng.integers(0, 3)),
                         n_gens=2)
    refs = tuple(g.bus for g in net.gens)
    got = set(enumerate_bases(net, refs))
    size = net.m - len(refs)
    expect = {
        combo for combo in itertools.combinations(range(net.l), size)
        if basis_oracle(net, refs, combo)
    }
    assert got == expect


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_bound_on_enumerable_instances(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 7)),
                         extra_edges=int(rng.integers(0, 3)), n_gens=2)
    op, model, ctx = pipeline(net, r=2, xi=1e-7)
    refs = tuple(g.bus for g in net.gens)
    P, ev, trace = greedy_select(ctx, net, refs)
    assert check_greedy_bound(ctx, net, refs, trace, P.S)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_swap_count_respects_iteration_budget(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(5, 12)),
                         extra_edges=int(rng.integers(1, 5)))
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    refs = tuple(net.gens[i].bus for i in model.refs)
    P, ev, trace = greedy_select(ctx, net, refs)
    eps = 1e-3
    P, ev, strace, swaps = local_search(ctx, P, ev, epsilon=eps)
    cap = local_search_iteration_cap(ctx, eps)
    assert swaps <= cap + 1


def test_iteration_budget_case39(pipe39, case39):
    _, model, ctx = pipe39
    sol = solve(ctx, case39, model)
    assert sol.swap_count <= local_search_iteration_cap(ctx, 1e-3) + 1


def test_extract_requires_maximal_set(pipe39, case39):
    _, model, ctx = pipe39
    P = PartitionSet(case39, (39, 34, 38), S=[])
    with pytest.raises(IslandingError, match="reference"):
        extract_solution(ctx, P, model)


def test_island_of_rejects_references_sharing_an_island():
    # a kept set mutated past the PartitionSet checks must still raise a
    # typed error, which the CLI reports, even under python -O
    net = path_net(3, [1, 3])
    P = PartitionSet(net, (1, 3))
    P.S.extend([0, 1])
    with pytest.raises(IslandingError, match="share an island"):
        P.island_of()


def shuffled_case_doc(rng, doc):
    """doc with buses and lines in a random order and random lines reversed.

    Parallel lines keep their relative order, which the parser uses to
    tell them apart; generator order is kept too.
    """
    branches = doc["branches"]

    def pair(k):
        return frozenset((branches[k]["from"], branches[k]["to"]))

    slots = {}
    for k in range(len(branches)):
        slots.setdefault(pair(k), []).append(k)
    slots = {p: iter(ks) for p, ks in slots.items()}
    order = [next(slots[pair(int(k))]) for k in rng.permutation(len(branches))]
    lines = [dict(branches[k]) for k in order]
    for br in lines:
        if rng.integers(0, 2):
            br["from"], br["to"] = br["to"], br["from"]
    return dict(doc, branches=lines,
                buses=[doc["buses"][k] for k in rng.permutation(len(doc["buses"]))])


def assert_same_solution(rng, doc):
    reports = []
    for d in (doc, shuffled_case_doc(rng, doc)):
        net = parse_case(json.dumps(d))
        op, model, ctx = pipeline(net, r=3)
        reports.append(json.dumps(solve(ctx, net, model).as_dict(),
                                  sort_keys=True))
    assert reports[0] == reports[1]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_solve_ignores_file_order_and_line_direction(seed):
    rng = np.random.default_rng(seed)
    assert_same_solution(rng, random_case_doc(
        rng, m=int(rng.integers(6, 20)), extra_edges=int(rng.integers(0, 8))))


@pytest.mark.parametrize("name", ["case39.json", "case118.json"])
def test_solve_ignores_file_order_bundled_cases(name):
    with open(os.path.join(DATA, name)) as fh:
        doc = json.load(fh)
    assert_same_solution(np.random.default_rng(1), doc)
