import dataclasses
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.coherency import ModelError
from gridisland.islanding import (
    MIN_EPSILON,
    TIE_BAND,
    IslandingError,
    _ties,
    extract_solution,
    greedy_select,
    local_search,
    solve,
)
from gridisland.baseline import two_step_partition
from gridisland.metrics import (
    IncrementalEvaluator,
    J,
    _partition_J,
    build_context,
    f,
    island_labels,
)
from gridisland.netcase import incidence_matrix, parse_case, serialize_case

from casekit import (
    DATA,
    bus_pos,
    line_ends,
    pipeline,
    random_case_doc,
    random_network,
    tied_network,
)
from matroid_oracle import (
    check_greedy_bound,
    connected_partitions,
    enumerate_bases,
    greedy_reference,
    local_search_iteration_cap,
    local_search_reference,
)


def assert_structural(ctx, sol):
    net, r = ctx.net, len(ctx.refs)
    assert len(sol.kept) == net.m - r
    assert len(sol.islands) == r
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(net.bus_ids.tolist())
    # island k holds the k-th reference generator
    for k, ref in enumerate(ctx.refs):
        assert ref in sol.generator_groups[k]
    # kept edges never cross island boundaries
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    ends = line_ends(net)
    for e in sol.kept:
        i, j = ends[e]
        assert island_of[i] == island_of[j]
    # reported cutset = exactly the crossing edges
    crossing = sorted(
        f"{i}-{j}" for i, j in ends if island_of[i] != island_of[j]
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
    # build_context holds no reference check of its own: a repeat ends in
    # build_model's ModelError
    op, model, _ = pipe39
    twice = dataclasses.replace(model, refs=(0, 0, 4))
    with pytest.raises(ModelError, match=r"distinct generator indices in \[0, 10\), "
                       r"got \[0, 0, 4\]"):
        build_context(case39, op, twice, 1e-6)


def test_greedy_trace_non_increasing(pipe39, case39):
    _, model, ctx = pipe39
    ev, trace = greedy_select(ctx)
    assert len(ev.S) == case39.m - 3
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    assert ev.J() == pytest.approx(J(ctx, ev.S), abs=1e-6)


@pytest.mark.parametrize("pipe, scored", [("pipe39", 147), ("pipe118", 2116)])
def test_greedy_rescores_only_the_lines_a_merge_touched(pipe, scored, request,
                                                        monkeypatch):
    # the greedy's work, pinned without a timer: one gains call per round
    # and, after the first, only the lines with an end in the merged
    # island (a rescan of every feasible line scores 991 and 11,860)
    _, _, ctx = request.getfixturevalue(pipe)
    sizes = []
    gains = IncrementalEvaluator.gains
    monkeypatch.setattr(IncrementalEvaluator, "gains", lambda self, cand: (
        sizes.append(len(cand)), gains(self, cand))[1])
    greedy_select(ctx)
    assert len(sizes) == ctx.net.m - len(ctx.refs)
    assert sum(sizes) == scored


def test_greedy_and_metrics_stay_below_one_target_block(monkeypatch):
    # J and f need only per-island statistics of 2r + 2 columns, so the
    # greedy and the metrics of its result must not hold even one dense
    # m x (n+1) float array of weighted targets: 10.35 MB on tied x24,
    # where keeping that block and its island sums peaked near 88 MB
    net = tied_network(monkeypatch, 24)
    _, _, ctx = pipeline(net, r=8, xi=1e-6)
    tracemalloc.start()
    try:
        ev, _ = greedy_select(ctx)
        J(ctx, ev.S)
        f(ctx, ev.S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * net.m * (net.n + 1)


def tied_case_doc(rng):
    """A random network built to tie: every line has one reactance, loads
    take one of three values and the generators are identical, so many
    rounds hold lines of equal J-decrease, some of them split by f."""
    n_gens = int(rng.integers(1, 4))
    doc = random_case_doc(rng, m=int(rng.integers(n_gens + 1, 13)),
                          extra_edges=int(rng.integers(0, 6)), n_gens=n_gens)
    for bus in doc["buses"]:
        bus["pd_mw"] = bus["pd_max_mw"] = float(rng.choice([0.0, 50.0, 100.0]))
    for line in doc["branches"]:
        line["x_pu"] = 0.1
    total = sum(bus["pd_mw"] for bus in doc["buses"])
    for gen in doc["gens"]:
        gen.update(pg_mw=total / n_gens, pg_max_mw=total / n_gens,
                   inertia_s=30.0, xd_prime_pu=0.1)
    return doc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3),
       st.sampled_from([0.0, 1e-7, 1e-6]))
def test_greedy_equals_the_per_line_reference_on_ties(seed, r, xi):
    doc = tied_case_doc(np.random.default_rng(seed))
    net = parse_case(json.dumps(doc))
    _, _, ctx = pipeline(net, r=min(r, net.n), xi=xi)
    ev, trace = greedy_select(ctx)
    assert (ev.S, trace) == greedy_reference(ctx)


def test_greedy_equals_the_per_line_reference_on_tied_x2(monkeypatch):
    # at xi = 0 two merges of this run differ in J-decrease only by
    # rounding; the band ties them, and the lower line index wins
    _, _, ctx = pipeline(tied_network(monkeypatch, 2), r=2, xi=0.0)
    ev, trace = greedy_select(ctx)
    assert (ev.S, trace) == greedy_reference(ctx)


def test_tie_band_is_relative_and_exact_when_not_finite():
    top = 3.0
    values = np.array([top, top * (1 - TIE_BAND / 2), top * (1 - 2 * TIE_BAND),
                       np.nextafter(top, 0.0)])
    assert _ties(values).tolist() == [True, True, False, True]
    with np.errstate(all="raise"):   # no inf - inf
        assert _ties(np.array([1e308, np.inf, np.inf])).tolist() == [
            False, True, True]


def test_local_search_never_worse(pipe39, case39):
    _, model, ctx = pipe39
    ev, trace = greedy_select(ctx)
    before = ev.J()
    ev2, strace = local_search(ev, epsilon=1e-3)
    assert ev2.J() <= before + 1e-9
    assert len(ev2.S) == len(ev.S)
    sol = solve(ctx)
    assert sol.swaps == len(strace)
    assert sol.trace == tuple(trace + strace)


def test_local_search_rejects_bad_epsilon(pipe39, case39):
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError):
        local_search(ev, epsilon=0.0)


EPSILON_RANGE = r"^epsilon must lie in \[1e-06, 1\)$"


@pytest.mark.parametrize("epsilon", [MIN_EPSILON / 10, float("nan")])
def test_local_search_rejects_epsilon_below_the_floor(pipe39, epsilon):
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError, match=EPSILON_RANGE):
        local_search(ev, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [1.0, float("inf"), float("nan")])
def test_search_refuses_epsilon_outside_the_range(pipe39, monkeypatch,
                                                  epsilon):
    # islanding.check_epsilon is the one rule: local_search and solve both
    # refuse with its message, and solve does so before the greedy runs
    import gridisland.islanding as islanding

    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    before = list(ev.S)
    with pytest.raises(IslandingError, match=EPSILON_RANGE):
        local_search(ev, epsilon=epsilon)
    assert ev.S == before
    monkeypatch.setattr(islanding, "greedy_select", None)
    with pytest.raises(IslandingError, match=EPSILON_RANGE):
        solve(ctx, epsilon=epsilon)


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


def test_solution_structure_case39(pipe39):
    _, model, ctx = pipe39
    sol = solve(ctx)
    assert_structural(ctx, sol)
    d = sol.as_dict()
    assert set(d) >= {"cutset", "islands", "J", "sqrt_f_mw", "H_bar", "trace"}


def test_solution_deterministic(pipe39, case39):
    _, model, ctx = pipe39
    a = solve(ctx)
    b = solve(ctx)
    assert a.kept == b.kept and a.cutset == b.cutset
    assert a.J == b.J


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_solution_structure_random(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    net = random_network(rng, m=int(rng.integers(r + 2, 16)),
                         extra_edges=int(rng.integers(0, 6)), n_gens=r)
    op, model, ctx = pipeline(net, r=r)
    sol = solve(ctx)
    assert_structural(ctx, sol)


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
    # epsilon = 1 asks for a J below zero, so check_epsilon refuses it;
    # the largest epsilon below 1 asks for J < 1.1e-16 J and swaps nothing
    _, model, ctx = pipe39
    ev, _ = greedy_select(ctx)
    before = sorted(ev.S)
    with pytest.raises(IslandingError, match=EPSILON_RANGE):
        local_search(ev, epsilon=1.0)
    ev2, trace = local_search(ev, epsilon=np.nextafter(1.0, 0.0))
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
    pos = bus_pos(net)
    E[[pos[b] for b in ref_buses], range(len(ref_buses))] = 1.0
    M = np.hstack([incidence_matrix(net, combo), E])
    return M.shape[1] == net.m == np.linalg.matrix_rank(M)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerate_bases_matches_rank_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=5, extra_edges=int(rng.integers(0, 3)),
                         n_gens=2)
    op, model, ctx = pipeline(net, r=2, refs=(0, 1))
    refs = tuple(net.gen_bus.tolist())
    got = set(enumerate_bases(ctx))
    size = net.m - len(refs)
    expect = {
        combo for combo in itertools.combinations(range(net.l), size)
        if basis_oracle(net, refs, combo)
    }
    assert got == expect


@pytest.mark.parametrize("seed", range(20))
def test_connected_partitions_match_enumerated_bases(seed):
    # every partition a basis induces, each once, and no other
    rng = np.random.default_rng(seed)
    r = 2 + seed % 2
    net = random_network(rng, m=int(rng.integers(r + 1, 9)),
                         extra_edges=int(rng.integers(0, 4)), n_gens=r + 1)
    _, _, ctx = pipeline(net, r=r, refs=tuple(range(r)))
    listed = [tuple(labels) for labels in connected_partitions(ctx)]
    assert len(listed) == len(set(listed))
    assert set(listed) == {tuple(island_labels(ctx, S))
                           for S in enumerate_bases(ctx)}


XI_GRID = (0.0, 1e-8, 1e-7, 1.78e-7, 1e-6, 1e-5)


@pytest.mark.parametrize("r", [2, 3])
def test_case39_exact_optimum_bounds_both_methods(case39, r):
    # J depends only on the partition, so J* is the least J over every
    # connected partition with one reference per island.  Each partition
    # is labelled by its smallest bus position, as component_labels
    # labels the buses, so its J is computed as metrics.J computes it.
    op, model, ctx = pipeline(case39, r=r)
    split = two_step_partition(case39, op, model)
    firsts = []
    for labels in connected_partitions(ctx):
        first = np.array([np.flatnonzero(labels == k)[0] for k in range(r)])
        firsts.append(first[labels])
    rows = []
    for xi in XI_GRID:
        ctx = build_context(case39, op, model, xi)
        J_star = min(_partition_J(ctx, lab) for lab in firsts)
        ours, theirs = solve(ctx).J, split.evaluate(ctx).J
        assert J_star <= ours
        rows.append(f"xi={xi:g} J*={J_star:.6g} weak-submodular "
                    f"{ours / J_star:.3f} spectral {theirs / J_star:.3f}")
    print(f"case39 r={r}, {len(firsts)} partitions, J/J*:", *rows, sep="\n  ")


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
    assert sol.swaps <= local_search_iteration_cap(ctx, 1e-3) + 1


def test_extract_requires_maximal_set(pipe39, case39):
    _, model, ctx = pipe39
    with pytest.raises(IslandingError, match="reference"):
        extract_solution(ctx, [])
    # one line short of a basis leaves an island without a reference
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError, match="reference"):
        extract_solution(ctx, ev.S[:-1])


@pytest.mark.parametrize("last", [46, 999, -1, 3.0])
def test_extract_rejects_a_kept_line_outside_the_network(pipe39, last):
    _, _, ctx = pipe39
    ev, _ = greedy_select(ctx)
    with pytest.raises(IslandingError, match=r"line indices in \[0, 46\)"):
        extract_solution(ctx, ev.S[:-1] + [last])


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
