import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridisland.baseline import (
    BaselineError,
    _best_assignment,
    _least_cost_permutation,
    constrained_mincut,
    coupling_weights,
    generator_bipartition,
    two_step_partition,
)
from gridisland.cli import main
from gridisland.coherency import internal_angles, kron_reduce
from gridisland.netcase import OperatingPoint, dc_power_flow, parse_case

from casekit import (
    DATA,
    bus_pos,
    line_ends,
    named_network,
    pipeline,
    random_case_doc,
    random_network,
    tied_network,
)


def pieces(net, lines, buses):
    """The connected pieces of a bus-id set over the given lines."""
    adj = {b: [] for b in buses}
    ends = line_ends(net)
    for k in lines:
        i, j = ends[k]
        if i in adj and j in adj:
            adj[i].append(j)
            adj[j].append(i)
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


def loop_generator_bipartition(W):
    """generator_bipartition with the added mask and the per-step masked
    argmax that the single key array replaced; the reference."""
    n = W.shape[0]
    A = np.array(W, dtype=float)
    live = np.ones(n, dtype=bool)
    members = [[k] for k in range(n)]
    best_val, best_side = np.inf, None
    for phase in range(n - 1):
        added = ~live
        start = int(np.argmax(live))
        added[start] = True
        conn = A[start].copy()
        prev = last = start
        for _ in range(n - 1 - phase):
            nxt = int(np.argmax(np.where(added, -np.inf, conn)))
            phase_cut = conn[nxt]
            added[nxt] = True
            conn += A[nxt]
            prev, last = last, nxt
        if phase_cut < best_val:
            best_val, best_side = phase_cut, list(members[last])
        A[prev] += A[last]
        A[:, prev] += A[:, last]
        A[prev, prev] = 0.0
        live[last] = False
        members[prev] += members[last]
    mask = np.zeros(n, dtype=bool)
    mask[best_side] = True
    t1 = [k for k in range(n) if not mask[k]]
    t2 = [k for k in range(n) if mask[k]]
    if min(t2) < min(t1):
        t1, t2 = t2, t1
    return t1, t2, float(W[np.ix_(mask, ~mask)].sum())


@st.composite
def tied_coupling_graphs(draw):
    # small integer weights, many of them equal or zero, so phases meet
    # ties in the key array and merged vertices at every step
    n = draw(st.integers(2, 14))
    W = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        W[i, j] = W[j, i] = draw(st.integers(0, 3))
    return W


@settings(max_examples=300, deadline=None)
@given(tied_coupling_graphs())
def test_stoer_wagner_is_exactly_the_masked_loop(W):
    assert generator_bipartition(W) == loop_generator_bipartition(W)


@pytest.mark.parametrize("name", ["case39", "case118", "tied x2", "tied x4"])
def test_stoer_wagner_is_exactly_the_masked_loop_on_cases(name, monkeypatch):
    net = named_network(name, monkeypatch)
    _, model, _ = pipeline(net)
    W = coupling_weights(net, model)
    assert generator_bipartition(W) == loop_generator_bipartition(W)


def test_bipartition_rejects_infinite_weights():
    W = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(BaselineError, match="finite"):
        generator_bipartition(W)


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
    op, model, _ = pipe118
    _, Y = kron_reduce(case118)
    delta = internal_angles(case118, op)
    V = case118.v.tolist()
    Minv = [1.0 / h for h in case118.inertia.tolist()]
    n = case118.n
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ref[i, j] = abs(
                    V[i] * V[j] * Y[i, j]
                    * np.cos(delta[i] - delta[j])
                ) * (Minv[i] + Minv[j])
    # same arithmetic; the tolerance allows an array cos that differs from
    # the scalar one in the last bit
    np.testing.assert_allclose(
        coupling_weights(case118, model), 0.5 * (ref + ref.T),
        rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ["case39", "case118", "tied x2"])
def test_coupling_weights_are_bitwise_abs_K(name, monkeypatch):
    net = named_network(name, monkeypatch)
    _, model, _ = pipeline(net)
    Hinv = np.array([1.0 / h for h in net.inertia.tolist()])
    expect = np.abs(model.K) * (Hinv[:, None] + Hinv[None, :])
    np.fill_diagonal(expect, 0.0)
    W = coupling_weights(net, model)
    np.testing.assert_array_equal(W, expect)
    np.testing.assert_array_equal(W, W.T)


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


def bus_positions(net, *id_sets):
    """Each set of bus ids as the set of their positions."""
    pos = bus_pos(net)
    return [{pos[b] for b in ids} for ids in id_sets]


def bus_ids(net, *position_sets):
    """Each set of bus positions as the set of their bus ids."""
    return [{int(net.bus_ids[p]) for p in pos} for pos in position_sets]


def test_mincut_bridge():
    net = line_net([1, 2, 3, 4], [1, 4])
    op = dc_power_flow(net)
    S1, S2, cut = constrained_mincut(net, op, *bus_positions(net, {1, 2}, {3, 4}))
    S1, S2 = bus_ids(net, S1, S2)
    assert S1 == {1, 2} and S2 == {3, 4}
    assert ["%d-%d" % line_ends(net)[k] for k in cut] == ["2-3"]


def test_mincut_rejects_bad_constraint_sets(case39):
    op = dc_power_flow(case39)
    with pytest.raises(BaselineError, match="overlap"):
        constrained_mincut(case39, op, *bus_positions(case39, {1, 2}, {2, 3}))
    with pytest.raises(BaselineError, match="nonempty"):
        constrained_mincut(case39, op, *bus_positions(case39, set(), {2}))


def test_mincut_flow_mismatch_is_a_typed_error(monkeypatch):
    # a max-flow value that disagrees with the cut it induces must raise
    # BaselineError, which the CLI reports, even under python -O
    import gridisland.baseline as baseline

    real = baseline._max_flow

    def off_by_one(res, src, snk):
        return real(res, src, snk) + 1.0

    monkeypatch.setattr(baseline, "_max_flow", off_by_one)
    net = line_net([1, 2, 3, 4], [1, 4])
    with pytest.raises(BaselineError, match="disagrees"):
        constrained_mincut(net, dc_power_flow(net),
                           *bus_positions(net, {1, 2}, {3, 4}))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_mincut_equal_capacities_minimizes_edge_count(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 9)),
                         extra_edges=int(rng.integers(0, 4)), n_gens=2)
    op = dc_power_flow(net)
    unit = OperatingPoint(
        angles=op.angles, flows=np.ones(net.l),
        injections=op.injections,
    )
    T1 = {int(net.gen_bus[0])}
    T2 = {int(net.gen_bus[1])}
    _, _, cut = constrained_mincut(net, unit, net.gen_pos[:1], net.gen_pos[1:2])
    # exhaustive: all bus splits respecting the constraints
    others = [b for b in net.bus_ids.tolist() if b not in T1 | T2]
    best = net.l + 1
    for bits in itertools.product([0, 1], repeat=len(others)):
        side1 = set(T1) | {b for b, s in zip(others, bits) if s == 0}
        count = sum(
            (i in side1) != (j in side1) for i, j in line_ends(net)
        )
        best = min(best, count)
    assert len(cut) == best


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
# two 91.5 MW cuts tie; rounding leaves a 1.4e-14 residual on one of them
@example(404059)
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
    T1 = {b for b, s in zip(net.gen_bus.tolist(), on_first) if s}
    T2 = {b for b, s in zip(net.gen_bus.tolist(), on_first) if not s}
    S1, S2, cut = constrained_mincut(net, op, *bus_positions(net, T1, T2))
    S1, S2 = bus_ids(net, S1, S2)
    flow = np.abs(op.flows)
    others = [b for b in net.bus_ids.tolist() if b not in T1 | T2]
    splits = []
    for bits in itertools.product([0, 1], repeat=len(others)):
        side1 = T1 | {b for b, s in zip(others, bits) if s == 0}
        value = sum(flow[k] for k, (i, j) in enumerate(line_ends(net))
                    if (i in side1) != (j in side1))
        splits.append((side1, value))
    best = min(v for _, v in splits)
    tol = 1e-9 * max(1.0, best)
    assert abs(sum(flow[k] for k in cut) - best) <= tol
    # the minimal min cut (the intersection of every optimal source side)
    # plus the pieces of its complement that hold no T2 bus
    minimal = set.intersection(*(side for side, v in splits if v <= best + tol))
    rest = set(net.bus_ids.tolist()) - minimal
    assert S1 == minimal.union(*(
        piece for piece in pieces(net, range(net.l), rest) if not piece & T2))
    assert S2 == set(net.bus_ids.tolist()) - S1


@pytest.mark.parametrize("copies", [8, 24])
def test_mincut_peak_memory_linear_in_the_network(copies, monkeypatch):
    # T1/T2: the generator bus positions of the first and second half of
    # the copies
    net = tied_network(monkeypatch, copies)
    op = dc_power_flow(net)
    half = net.n // 2   # the generators are listed copy by copy
    T1, T2 = net.gen_pos[:half].tolist(), net.gen_pos[half:].tolist()
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
    sides = {frozenset(int(case39.gen_bus[i]) for i in side) for side in (t1, t2)}
    assert frozenset({39}) in sides


def test_two_step_needs_r_at_least_two(case39):
    op, model, _ = pipeline(case39, r=1)
    with pytest.raises(BaselineError, match="r >= 2"):
        two_step_partition(case39, op, model)


def test_two_step_structure_case39(pipe39, case39):
    op, model, ctx = pipe39
    sol = two_step_partition(case39, op, model).evaluate(ctx)
    assert sol.method == "spectral"
    assert len(sol.islands) == 3
    assert all(sol.islands) and all(sol.generator_groups)
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(case39.bus_ids.tolist())
    all_gens = sorted(i for g in sol.generator_groups for i in g)
    assert all_gens == list(range(case39.n))
    # generators sit on buses of their own island
    for isl, grp in zip(sol.islands, sol.generator_groups):
        for i in grp:
            assert int(case39.gen_bus[i]) in isl
    # the reported cutset disconnects exactly along island boundaries
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    crossing = sorted(f"{i}-{j}" for i, j in line_ends(case39)
                      if island_of[i] != island_of[j])
    assert sorted(sol.cutset) == crossing


def test_two_step_deterministic(pipe39, case39):
    op, model, ctx = pipe39
    a = two_step_partition(case39, op, model).evaluate(ctx)
    b = two_step_partition(case39, op, model).evaluate(ctx)
    assert a.cutset == b.cutset and a.J == b.J


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_two_step_structure_random(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    net = random_network(rng, m=int(rng.integers(r + 3, 14)),
                         extra_edges=int(rng.integers(0, 5)), n_gens=r + 1)
    op, model, ctx = pipeline(net, r=r)
    sol = two_step_partition(net, op, model).evaluate(ctx)
    assert len(sol.islands) == r
    assert all(sol.islands) and all(sol.generator_groups)
    covered = sorted(b for isl in sol.islands for b in isl)
    assert covered == sorted(net.bus_ids.tolist())
    # the kept lines are exactly those whose ends share an island
    island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
    assert sol.kept == tuple(k for k, (i, j) in enumerate(line_ends(net))
                          if island_of[i] == island_of[j])
    # every piece of every island holds a generator of its group
    for isl, grp in zip(sol.islands, sol.generator_groups):
        gen_buses = {int(net.gen_bus[i]) for i in grp}
        for piece in pieces(net, sol.kept, set(isl)):
            assert piece & gen_buses


def test_two_step_groups_each_subsystem_once(pipe118, case118, monkeypatch):
    # every subsystem's generator grouping is computed once, when the
    # recursion first needs it: 9 calls at r = 8 on case118
    import gridisland.baseline as baseline

    calls = []
    real = baseline.generator_bipartition

    def counted(W):
        calls.append(W.tobytes())
        return real(W)

    monkeypatch.setattr(baseline, "generator_bipartition", counted)
    op, model, _ = pipeline(case118, r=8)
    two_step_partition(case118, op, model)
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
            out = tmp_path / "report.json"
            assert main(["run", "--case", str(path), "--r", str(r),
                         "--method", "spectral", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            sol = report["runs"][0]["methods"]["spectral"]
            for isl in sol["islands"]:
                assert len(pieces(net, sol["kept"], set(isl))) == 1, (host, r)
