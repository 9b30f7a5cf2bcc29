import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.baseline import (
    BaselineError,
    _best_assignment,
    _least_cost_permutation,
    constrained_mincut,
    coupling_weights,
    generator_bipartition,
    two_step_partition,
)
from gridisland.cli import RunConfig, run
from gridisland.netcase import OperatingPoint, dc_power_flow, parse_case

from casekit import (
    DATA,
    pipeline,
    random_case_doc,
    random_network,
    tied_network,
)


def pieces(net, lines, buses):
    """The connected pieces of a bus-id set over the given lines."""
    adj = {b: [] for b in buses}
    for k in lines:
        br = net.branches[k]
        if br.i in adj and br.j in adj:
            adj[br.i].append(br.j)
            adj[br.j].append(br.i)
    seen, out = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        piece, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in piece:
                    piece.add(v)
                    stack.append(v)
        seen |= piece
        out.append(piece)
    return out


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


def brute_force_cuts(W):
    """Every bipartition with node 0 on the first side, and its cut value."""
    n = W.shape[0]
    cuts = []
    for bits in itertools.product([False, True], repeat=n - 1):
        mask = np.array((False,) + bits)
        if mask.any():
            cuts.append((mask, float(W[np.ix_(~mask, mask)].sum())))
    return cuts


@st.composite
def coupling_graphs(draw):
    # nonnegative symmetric weights with exact zeros; a block label per
    # node zeroes every weight between blocks, so W is often disconnected
    n = draw(st.integers(2, 10))
    blocks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    W = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        if blocks[i] == blocks[j]:
            W[i, j] = W[j, i] = draw(
                st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    return W


@settings(max_examples=150, deadline=None)
@given(coupling_graphs())
def test_stoer_wagner_equals_brute_force(W):
    t1, t2, val = generator_bipartition(W)
    cuts = brute_force_cuts(W)
    best = min(v for _, v in cuts)
    assert val == pytest.approx(best, abs=1e-9)
    assert sorted(t1 + t2) == list(range(W.shape[0])) and t1 and t2
    assert 0 in t1
    optimal = [mask for mask, v in cuts if v <= best + 1e-9]
    if len(optimal) == 1:
        assert t2 == list(np.flatnonzero(optimal[0]))


def test_tied_minima_follow_the_documented_rule():
    # every single-node cut of an equal-weight triangle costs 2; phases
    # start at node 0 and add the lowest index among equals, so the first
    # phase ends at node 2, and the later equal cut does not replace it
    W = np.ones((3, 3)) - np.eye(3)
    assert generator_bipartition(W) == ([0, 1], [2], 2.0)


def test_planted_40_generator_blocks():
    # two dense 20-generator blocks joined by small weights, shuffled;
    # above the size where exhaustive enumeration was feasible
    rng = np.random.default_rng(40)
    n = 40
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[:20]] = True
    same = side[:, None] == side[None, :]
    W = np.where(same, rng.uniform(1.0, 2.0, (n, n)),
                 rng.uniform(0.0, 0.01, (n, n)))
    W = np.triu(W, 1)
    W = W + W.T
    t1, t2, val = generator_bipartition(W)
    first = list(np.flatnonzero(side == side[0]))
    assert (t1, t2) == (first, list(np.flatnonzero(side != side[0])))
    assert val == pytest.approx(W[np.ix_(side, ~side)].sum(), rel=1e-12)


def test_bipartition_rejects_negative_weights():
    W = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(BaselineError, match="nonnegative"):
        generator_bipartition(W)


def test_coupling_weights_match_elementwise_formula(pipe118, case118):
    _, model, _ = pipe118
    V = [g.v for g in case118.gens]
    Minv = [1.0 / g.inertia for g in case118.gens]
    n = case118.n
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ref[i, j] = abs(
                    V[i] * V[j] * model.B_red[i, j]
                    * np.cos(model.delta[i] - model.delta[j])
                ) * (Minv[i] + Minv[j])
    # same arithmetic; the tolerance allows an array cos that differs from
    # the scalar one in the last bit
    np.testing.assert_allclose(
        coupling_weights(case118, model), 0.5 * (ref + ref.T),
        rtol=1e-15, atol=0.0)


def reference_assignment(L, groups):
    # the permutation loop with per-row costs that the r x r matrix replaces
    r = len(groups)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(r)):
        cost = 0.0
        for k, gens in enumerate(groups):
            for i in gens:
                row = L[i].copy()
                row[perm[k]] -= 1.0
                cost += float(row @ row)
        if cost < best_cost:
            best_cost, best_perm = cost, list(perm)
    return best_perm


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_best_assignment_matches_per_row_loop(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 6))
    n = int(rng.integers(r, 12))
    owner = np.concatenate([np.arange(r), rng.integers(0, r, n - r)])
    groups = [list(np.flatnonzero(owner == k)) for k in range(r)]
    L = rng.normal(size=(n, r))
    model = SimpleNamespace(L=L)
    assert _best_assignment(model, groups) == reference_assignment(L, groups)


def test_best_assignment_ties_go_to_first_permutation():
    # L = 0 costs every permutation the same
    model = SimpleNamespace(L=np.zeros((4, 3)))
    assert _best_assignment(model, [[0], [1, 2], [3]]) == [0, 1, 2]


def permutation_loop(C):
    # every permutation in lexicographic order, first least float sum wins
    r = len(C)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(r)):
        cost = sum(C[k][j] for k, j in enumerate(perm))
        if cost < best_cost:
            best_cost, best_perm = cost, list(perm)
    return best_perm


@st.composite
def cost_matrices(draw):
    # nonnegative r x r costs; small integers and copied columns make
    # exactly tied totals, real entries make rounding-level near-ties
    r = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(0, 3).map(float),
                      st.floats(0.0, 10.0, allow_subnormal=False))
    C = [[draw(entry) for _ in range(r)] for _ in range(r)]
    for j in range(r):
        src = draw(st.integers(0, j))
        if src < j and draw(st.booleans()):
            for row in C:
                row[j] = row[src]
    return C


@settings(max_examples=200, deadline=None)
@given(cost_matrices())
def test_least_cost_permutation_is_the_enumeration(C):
    assert _least_cost_permutation(C) == permutation_loop(C)


def test_least_cost_permutation_at_r_11():
    # every permutation ties, so only the bound on the later rows keeps
    # the search from visiting all 11! = 39.9M of them
    assert _least_cost_permutation([[1.0] * 11] * 11) == list(range(11))


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

    real = baseline._max_flow

    def off_by_one(res, src, snk):
        value, side = real(res, src, snk)
        return value + 1.0, side

    monkeypatch.setattr(baseline, "_max_flow", off_by_one)
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_mincut_is_the_minimal_exhaustive_minimum(seed):
    # |DC flow| capacities; T1/T2 hold the buses of a random split of the
    # generators.  Load-free pendant buses on lines of power-of-two
    # reactance carry exactly zero flow, so their side is a tie that the
    # minimal cut breaks toward T2, cut off from the rest of T2's side;
    # such pieces join the source side.  Every bus split respecting T1/T2
    # is enumerated
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 10))
    doc = random_case_doc(rng, m=m, extra_edges=int(rng.integers(0, 5)),
                          n_gens=int(rng.integers(2, min(m, 5) + 1)))
    for bus in range(m + 1, m + 1 + int(rng.integers(0, 3))):
        doc["buses"].append({"id": bus, "pd_mw": 0.0})
        doc["branches"].append(
            {"from": int(rng.integers(1, bus)), "to": bus, "x_pu": 0.25})
    net = parse_case(json.dumps(doc))
    op = dc_power_flow(net)
    on_first = rng.permutation([True, False] + [
        bool(b) for b in rng.integers(0, 2, net.n - 2)])
    T1 = {g.bus for g, s in zip(net.gens, on_first) if s}
    T2 = {g.bus for g, s in zip(net.gens, on_first) if not s}
    S1, S2, cut = constrained_mincut(net, op, T1, T2)
    flow = np.abs(op.flows)
    others = [b.id for b in net.buses if b.id not in T1 | T2]
    splits = []
    for bits in itertools.product([0, 1], repeat=len(others)):
        side1 = T1 | {b for b, s in zip(others, bits) if s == 0}
        value = sum(flow[k] for k, br in enumerate(net.branches)
                    if (br.i in side1) != (br.j in side1))
        splits.append((side1, value))
    best = min(v for _, v in splits)
    tol = 1e-9 * max(1.0, best)
    assert abs(sum(flow[k] for k in cut) - best) <= tol
    # the minimal min cut (the intersection of every optimal source side)
    # plus the pieces of its complement that hold no T2 bus
    minimal = set.intersection(*(side for side, v in splits if v <= best + tol))
    rest = {b.id for b in net.buses} - minimal
    assert S1 == minimal.union(*(
        piece for piece in pieces(net, range(net.l), rest) if not piece & T2))
    assert S2 == {b.id for b in net.buses} - S1


@pytest.mark.parametrize("copies", [8, 24])
def test_mincut_peak_memory_linear_in_the_network(copies, monkeypatch):
    # T1/T2: the generator buses of the first and second half of the copies
    net = tied_network(monkeypatch, copies)
    op = dc_power_flow(net)
    half = net.n // 2   # the generators are listed copy by copy
    T1 = {g.bus for g in net.gens[:half]}
    T2 = {g.bus for g in net.gens[half:]}
    tracemalloc.start()
    try:
        constrained_mincut(net, op, T1, T2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * (net.m + net.l)


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
        two_step_partition(case39, op, model, 1)


def test_two_step_structure_case39(pipe39, case39):
    op, model, ctx = pipe39
    sol = two_step_partition(case39, op, model, 3).evaluate(ctx)
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
    a = two_step_partition(case39, op, model, 3).evaluate(ctx)
    b = two_step_partition(case39, op, model, 3).evaluate(ctx)
    assert a.cutset == b.cutset and a.J_value == b.J_value


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_two_step_structure_random(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    net = random_network(rng, m=int(rng.integers(r + 3, 14)),
                         extra_edges=int(rng.integers(0, 5)), n_gens=r + 1)
    op, model, ctx = pipeline(net, r=r)
    sol = two_step_partition(net, op, model, r).evaluate(ctx)
    assert len(sol.islands) == r
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(b.id for b in net.buses)
    # the kept lines are exactly those whose ends share an island
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    assert sol.S == tuple(k for k, br in enumerate(net.branches)
                          if island_of[br.i] == island_of[br.j])
    # every piece of every island holds a generator of its group
    for isl, grp in zip(sol.islands, sol.groups):
        gen_buses = {net.gens[i].bus for i in grp}
        for piece in pieces(net, sol.S, set(isl)):
            assert piece & gen_buses


def test_two_step_groups_each_subsystem_once(pipe118, case118, monkeypatch):
    # every subsystem's generator grouping is computed once, when the
    # recursion first needs it: 9 calls at r = 8 on case118
    import gridisland.baseline as baseline

    calls = []
    real = baseline.generator_bipartition

    def counted(W, nodes=None):
        calls.append(tuple(nodes))
        return real(W, nodes)

    monkeypatch.setattr(baseline, "generator_bipartition", counted)
    op, model, _ = pipeline(case118, r=8)
    two_step_partition(case118, op, model, 8)
    assert len(calls) == len(set(calls)) == 9


def test_pendant_bus_stays_with_its_host(tmp_path):
    # case39 plus a load-free bus 40 on an x = 0.25 line: its line carries
    # exactly zero flow, so the min cut ties over its side; it must still
    # land in its host's island, which stays connected over kept lines
    with open(f"{DATA}/case39.json") as fh:
        doc = json.load(fh)
    doc["buses"].append({"id": 40, "pd_mw": 0.0})
    for host in range(1, 40):
        doc["branches"].append({"from": host, "to": 40, "x_pu": 0.25})
        path = tmp_path / f"case39_pendant_{host}.json"
        path.write_text(json.dumps(doc))
        net = parse_case(json.dumps(doc))
        doc["branches"].pop()
        for r in (2, 3):
            report = run(RunConfig(case=str(path), r=r, method="spectral"))
            sol = report["runs"][0]["methods"]["spectral"]
            for isl in sol["islands"]:
                assert len(pieces(net, sol["kept"], set(isl))) == 1, (host, r)
