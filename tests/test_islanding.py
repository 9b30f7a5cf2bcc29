import dataclasses
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.islanding import (
    IslandingError,
    extract_solution,
    greedy_select,
    local_search,
    solve,
)
from gridisland.metrics import (
    IncrementalEvaluator,
    J,
    MetricError,
    build_context,
    island_labels,
)
from gridisland.netcase import incidence_matrix, parse_case, serialize_case

from casekit import DATA, pipeline, random_case_doc, random_network
from matroid_oracle import (
    check_greedy_bound,
    enumerate_bases,
    local_search_iteration_cap,
    local_search_reference,
)


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


def test_kept_cycle_is_rejected():
    net = triangle_net()
    op, model, ctx = pipeline(net, r=1, refs=(0,))
    assert island_labels(ctx, [0, 1, 2]) is None
    with pytest.raises(IslandingError, match="forest"):
        extract_solution(ctx, [0, 1, 2])
    # the greedy never adds the line that would close the triangle
    ev, _ = greedy_select(ctx)
    assert sorted(ev.S) == [0, 1]
    assert island_labels(ctx, ev.S).tolist() == [0, 0, 0]


def test_duplicate_references_rejected(pipe39, case39):
    op, model, _ = pipe39
    twice = dataclasses.replace(model, refs=(0, 0, 4))
    with pytest.raises(MetricError, match="distinct"):
        build_context(case39, op, twice, 1e-6)


def test_greedy_trace_non_increasing(pipe39, case39):
    _, model, ctx = pipe39
    ev, trace = greedy_select(ctx)
    assert len(ev.S) == case39.m - 3
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    assert ev.J() == pytest.approx(J(ctx, ev.S), abs=1e-6)


def test_local_search_never_worse(pipe39, case39):
    _, model, ctx = pipe39
    ev, trace = greedy_select(ctx)
    before = ev.J()
    ev2, strace = local_search(ev, epsilon=1e-3)
    assert ev2.J() <= before + 1e-9
    assert len(ev2.S) == len(ev.S)
    sol = solve(ctx)
    assert sol.swap_count == len(strace)
    assert sol.trace == tuple(trace + strace)


def test_local_search_rejects_bad_epsilon(pipe39, case39):
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError):
        local_search(ev, epsilon=0.0)


def test_local_search_rejects_a_kept_set_that_is_not_a_basis(pipe39):
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    short = IncrementalEvaluator(ctx)
    for e in ev.S[:-1]:   # one island is left without a reference
        short.add(e)
    with pytest.raises(IslandingError, match="forest"):
        local_search(short, epsilon=1e-3)
    net = triangle_net()
    _, _, tri = pipeline(net, r=1, refs=(0,))
    cycle = IncrementalEvaluator(tri)
    for e in range(net.l):
        cycle.add(e)
    with pytest.raises(IslandingError, match="forest"):
        local_search(cycle, epsilon=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4),
       st.sampled_from([0.0, 1e-7, 1e-6, 1e-5]),
       st.sampled_from([1e-3, 1e-6]))
def test_local_search_matches_per_line_evaluator_reference(seed, r, xi, eps):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(r, 8))
    net = random_network(rng, m=int(rng.integers(n_gens + 1, 31)),
                         extra_edges=int(rng.integers(1, 12)), n_gens=n_gens)
    op, model, ctx = pipeline(net, r=r, xi=xi)
    start, _ = greedy_select(ctx)
    ref, ref_trace = local_search_reference(start, eps)
    ev, trace = local_search(start, eps)
    assert sorted(ev.S) == sorted(ref.S)
    assert len(trace) == len(ref_trace)
    assert trace == pytest.approx(ref_trace, rel=1e-12)
    assert ev.J() == pytest.approx(J(ctx, ev.S), abs=1e-9 * ev.base)


def test_solution_structure_case39(pipe39, case39):
    _, model, ctx = pipe39
    sol = solve(ctx)
    assert_structural(case39, sol, 3)
    d = sol.as_dict()
    assert set(d) >= {"cutset", "islands", "J", "sqrt_f_mw", "H_bar", "trace"}


def test_solution_deterministic(pipe39, case39):
    _, model, ctx = pipe39
    a = solve(ctx)
    b = solve(ctx)
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
    sol = solve(ctx)
    assert_structural(net, sol, r)


def path_net(n_bus, gen_buses):
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
    net = parse_case(json.dumps(dict(
        json.loads(serialize_case(triangle_net())),
        buses=[{"id": b, "pd_mw": 0.0} for b in (1, 2, 3)],
        gens=[{"bus": b, "pg_mw": 0.0, "inertia_s": 5.0, "xd_prime_pu": 0.1}
              for b in (1, 2, 3)])))
    op, model, ctx = pipeline(net, r=3, refs=(0, 1, 2))
    ev, trace = greedy_select(ctx)
    assert ev.S == []


def test_path_graph_two_end_references_cuts_best_edge():
    net = path_net(4, [1, 4])
    op, model, ctx = pipeline(net, r=2, refs=(0, 1))
    ev, _ = greedy_select(ctx)
    assert len(ev.S) == 2
    got = J(ctx, ev.S)
    best = min(
        J(ctx, [e for e in range(net.l) if e != cut]) for cut in range(net.l)
    )
    assert got == pytest.approx(best, abs=1e-9)


def test_local_search_epsilon_one_changes_nothing(pipe39, case39):
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    before = sorted(ev.S)
    ev2, trace = local_search(ev, epsilon=1.0)
    assert trace == [] and sorted(ev2.S) == before


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_local_search_output_is_epsilon_locally_optimal(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=6, extra_edges=int(rng.integers(1, 4)),
                         n_gens=2)
    op, model, ctx = pipeline(net, r=2, xi=1e-6)
    ev, _ = greedy_select(ctx)
    eps = 1e-6
    ev, _ = local_search(ev, epsilon=eps)
    final = ev.J()
    if final <= 1e-12 * IncrementalEvaluator(ctx).base:
        return  # numerically zero, nothing left to improve
    for v in sorted(ev.S):
        for e in range(net.l):
            if e in ev.S:
                continue
            new_S = [x for x in ev.S if x != v] + [e]
            if island_labels(ctx, new_S) is None:
                continue   # the swap closes a cycle
            assert J(ctx, new_S) >= (1 - eps) * final - 1e-12


def basis_oracle(net, ref_buses, combo):
    """Full rank of the kept lines' incidence columns next to one unit
    column per reference (its line to the root, with the root row
    dropped): the augmented graph's spanning-tree test over the reals."""
    E = np.zeros((net.m, len(ref_buses)))
    E[[net.bus_pos[b] for b in ref_buses], range(len(ref_buses))] = 1.0
    M = np.hstack([incidence_matrix(net, combo), E])
    return M.shape[1] == net.m == np.linalg.matrix_rank(M)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerate_bases_matches_rank_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=5, extra_edges=int(rng.integers(0, 3)),
                         n_gens=2)
    op, model, ctx = pipeline(net, r=2, refs=(0, 1))
    refs = tuple(g.bus for g in net.gens)
    got = set(enumerate_bases(ctx))
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
    ev, trace = greedy_select(ctx)
    assert check_greedy_bound(ctx, trace, ev.S)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_swap_count_respects_iteration_budget(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(5, 12)),
                         extra_edges=int(rng.integers(1, 5)))
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    ev, trace = greedy_select(ctx)
    eps = 1e-3
    ev, strace = local_search(ev, epsilon=eps)
    cap = local_search_iteration_cap(ctx, eps)
    assert len(strace) <= cap + 1


def test_iteration_budget_case39(pipe39, case39):
    _, model, ctx = pipe39
    sol = solve(ctx)
    assert sol.swap_count <= local_search_iteration_cap(ctx, 1e-3) + 1


def test_extract_requires_maximal_set(pipe39, case39):
    _, model, ctx = pipe39
    with pytest.raises(IslandingError, match="reference"):
        extract_solution(ctx, [])
    # one line short of a basis leaves an island without a reference
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError, match="reference"):
        extract_solution(ctx, ev.S[:-1])


def test_extract_rejects_references_sharing_an_island():
    # a forest joining both references must raise a typed error, which
    # the CLI reports, even under python -O
    net = path_net(3, [1, 3])
    op, model, ctx = pipeline(net, r=2, refs=(0, 1))
    assert island_labels(ctx, [0, 1]) is None
    with pytest.raises(IslandingError, match="one reference per island"):
        extract_solution(ctx, [0, 1])


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
        reports.append(json.dumps(solve(ctx).as_dict(),
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
