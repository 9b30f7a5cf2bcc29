import builtins
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridisland.cli import main
from gridisland.coherency import (
    ModelError,
    build_K,
    build_model,
    coherency_matrix,
    inertia,
    internal_angles,
    kron_reduce,
    slow_modes,
)
from gridisland.netcase import (
    CaseError,
    OperatingPoint,
    _star_mesh,
    dc_power_flow,
    parse_case,
)

from casekit import (
    ROOT,
    bus_pos,
    named_network,
    random_case_doc,
    random_network,
    tied_network,
)
from dense_oracle import (
    dense_dc_angles,
    dense_kron,
    dense_slow_modes,
    susceptance_laplacian,
)
from prelude_reference import kept_buses_reference, prelude_reference


def two_gen_net(x=0.2):
    doc = {
        "base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": 1,
        "buses": [{"id": 1, "pd_mw": 0.0}, {"id": 2, "pd_mw": 0.0}],
        "branches": [{"from": 1, "to": 2, "x_pu": x}],
        "gens": [
            {"bus": 1, "pg_mw": 0.0, "inertia_s": 5.0, "xd_prime_pu": 0.1},
            {"bus": 2, "pg_mw": 0.0, "inertia_s": 8.0, "xd_prime_pu": 0.1},
        ],
    }
    return parse_case(json.dumps(doc))


def laplacian(Y):
    """The reduced Laplacian diag(Y 1) - Y of couplings Y, the form the
    elimination oracles return."""
    return np.diag(Y.sum(axis=1)) - Y


def test_reduction_sign_convention():
    # a single line of susceptance 5 between two generator buses:
    # the coupling is +5, and so is K's off-diagonal entry
    net = two_gen_net(x=0.2)
    op, Y = kron_reduce(net)
    assert Y[0, 1] == pytest.approx(5.0)
    assert Y[0, 0] == Y[1, 1] == 0.0
    K = build_K(net, op, Y)
    assert K[0, 1] == pytest.approx(5.0)
    assert K[0, 0] == pytest.approx(-5.0)


def elementwise_elimination(W, keep):
    """One-node-at-a-time star-mesh elimination, the slow oracle."""
    W = W.copy()
    alive = list(range(W.shape[0]))
    for node in [k for k in alive if k not in keep]:
        p = alive.index(node)
        sub = np.delete(np.delete(W, p, 0), p, 1)
        row = np.delete(W[p], p)
        sub -= np.outer(row, row) / W[p, p]
        W = sub
        alive.remove(node)
    order = [alive.index(k) for k in keep]
    return W[np.ix_(order, order)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_matches_elimination_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 10)),
                         extra_edges=int(rng.integers(0, 4)))
    keep = net.gen_pos.tolist()
    expected = elementwise_elimination(susceptance_laplacian(net), keep)
    np.testing.assert_allclose(laplacian(kron_reduce(net)[1]), expected, atol=1e-9)


@pytest.mark.parametrize("name", ["case39", "case118", "tied x2"])
def test_reduction_matches_elimination_oracle_on_cases(name, monkeypatch):
    net = named_network(name, monkeypatch)
    keep = net.gen_pos.tolist()
    expected = elementwise_elimination(susceptance_laplacian(net), keep)
    np.testing.assert_allclose(laplacian(kron_reduce(net)[1]), expected,
                               rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_elimination_matches_dense_solves(seed):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 5))
    net = random_network(rng, m=int(rng.integers(n_gens + 1, 16)),
                         extra_edges=int(rng.integers(0, 6)), n_gens=n_gens)
    op = dc_power_flow(net)
    theta = dense_dc_angles(net)
    np.testing.assert_allclose(op.angles, theta, rtol=1e-12,
                               atol=1e-12 * np.abs(theta).max())
    # the dense Schur complement rounds at the scale of the Laplacian,
    # where the elimination of positive weights has no cancellation
    scale = np.abs(susceptance_laplacian(net)).max()
    np.testing.assert_allclose(laplacian(kron_reduce(net)[1]), dense_kron(net),
                               rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_elimination_matches_dense_solves_with_the_slack_at_a_load_bus(seed):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 5))
    doc = random_case_doc(rng, m=int(rng.integers(n_gens + 1, 16)),
                          extra_edges=int(rng.integers(0, 6)), n_gens=n_gens)
    gen_buses = {g["bus"] for g in doc["gens"]}
    loads = [b["id"] for b in doc["buses"] if b["id"] not in gen_buses]
    doc["slack_bus"] = int(rng.choice(loads))
    net = parse_case(json.dumps(doc))
    op, Y = kron_reduce(net)
    theta = dense_dc_angles(net)
    assert op.angles[bus_pos(net)[net.slack_bus]] == 0.0
    np.testing.assert_allclose(op.angles, theta, rtol=1e-12,
                               atol=1e-12 * np.abs(theta).max())
    assert dc_power_flow(net).angles.tobytes() == op.angles.tobytes()
    scale = np.abs(susceptance_laplacian(net)).max()
    np.testing.assert_allclose(laplacian(Y), dense_kron(net),
                               rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_array_equal(Y, Y.T)
    assert not np.diag(Y).any() and Y.min() >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_two_generators_on_one_bus_have_a_flow_but_no_reduction(seed):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 5))
    doc = random_case_doc(rng, m=int(rng.integers(n_gens + 1, 16)),
                          extra_edges=int(rng.integers(0, 6)), n_gens=n_gens)
    twin = doc["gens"][int(rng.integers(n_gens))]
    doc["gens"].insert(int(rng.integers(n_gens + 1)),
                       {**twin, "pg_mw": 25.0, "pg_max_mw": 30.0})
    net = parse_case(json.dumps(doc))
    theta = dense_dc_angles(net)
    np.testing.assert_allclose(dc_power_flow(net).angles, theta, rtol=1e-12,
                               atol=1e-12 * np.abs(theta).max())
    with pytest.raises(ModelError, match="^two generators share a bus$"):
        kron_reduce(net)


def test_nonfinite_pivots_are_typed_errors():
    # a reactance of 5e-324 gives its line the weight 1/x = inf.  The
    # elimination keeps the generator buses 1 and 3: on the chain it
    # meets the infinite weight in a star of two, on the ring in a star
    # of two (bus 2 goes first) and on the complete graph of four buses
    # in a star of three at bus 2.  Both stages run that one elimination.
    chain = [(1, 2, 5e-324), (2, 3, 0.1)]
    ring = chain + [(3, 4, 0.1), (1, 4, 0.1)]
    complete = ring + [(1, 3, 0.1), (2, 4, 0.1)]
    for lines in (chain, ring, complete):
        net = small_net(lines, gen_buses=(1, 3))
        for stage in (dc_power_flow, kron_reduce):
            with pytest.raises(CaseError, match="pivot at bus 2$") as got:
                stage(net)
            with pytest.raises(CaseError) as want:
                prelude_reference(net)
            assert str(got.value) == str(want.value)


def small_net(lines, gen_buses, slack=1):
    """Buses 1..m of 10 MW load, lines (i, j, x) and one 5 MW machine
    per load bus at each of gen_buses."""
    m = max(j for _, j, _ in lines)
    doc = {
        "base_mva": 100.0, "slack_bus": slack,
        "buses": [{"id": b, "pd_mw": 10.0} for b in range(1, m + 1)],
        "branches": [{"from": i, "to": j, "x_pu": x} for i, j, x in lines],
        "gens": [{"bus": b, "pg_mw": 5.0 * m, "inertia_s": 5.0,
                  "xd_prime_pu": 0.1} for b in gen_buses],
    }
    return parse_case(json.dumps(doc))


@pytest.mark.parametrize("slack", [1, 2, 4])
def test_an_infinite_line_between_generator_buses_is_a_case_error(slack):
    # no pivot reads a weight between two kept buses, so the grounded
    # system holds the infinite weight; it is a CaseError, never a
    # LinAlgError or a NaN angle
    net = small_net([(1, 2, 0.1), (2, 3, 0.1), (3, 4, 0.1), (1, 4, 5e-324)],
                    gen_buses=(1, 4), slack=slack)
    for stage in (dc_power_flow, kron_reduce, prelude_reference):
        with pytest.raises(CaseError, match="^singular or non-finite reduced "
                           "susceptance network$"):
            stage(net)


def test_an_elimination_fault_outranks_two_generators_on_one_bus():
    net = small_net([(1, 2, 5e-324), (2, 3, 0.1)], gen_buses=(1, 3, 3))
    with pytest.raises(CaseError, match="pivot at bus 2$"):
        kron_reduce(net)


def raise_singular(A, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve", [raise_singular,
                                   lambda A, b: np.full(len(b), np.nan)],
                         ids=["LinAlgError", "NaN"])
def test_a_singular_grounded_system_is_a_case_error(monkeypatch, solve):
    # LAPACK raises on an exactly singular system; one singular to
    # rounding can give NaN angles instead
    net = small_net([(1, 2, 0.1), (2, 3, 0.1)], gen_buses=(1, 3))
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(CaseError, match="^singular or non-finite reduced"):
        dc_power_flow(net)


@pytest.mark.parametrize("copies", [8, 24])
def test_prelude_peak_memory_below_one_dense_matrix(copies, monkeypatch):
    net = tied_network(monkeypatch, copies)
    for stage in (dc_power_flow, kron_reduce):
        tracemalloc.start()
        try:
            stage(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * net.m ** 2   # one dense m x m float64 array


@pytest.mark.parametrize("copies", [8, 24])
def test_slow_modes_peak_memory_below_two_and_a_half_dense_matrices(
        copies, monkeypatch):
    # traced: one scaled copy of K and the eigenvectors, 2 n^2 floats; a
    # symmetrised second copy would make it 3 n^2
    net = tied_network(monkeypatch, copies)
    K = build_K(net, *kron_reduce(net))
    m = inertia(net)
    tracemalloc.start()
    try:
        slow_modes(m, K, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * net.n ** 2


def test_build_K_peak_memory_below_two_and_a_half_dense_matrices(monkeypatch):
    # traced: K and the cosine buffer, 2 n^2 floats; Y is the caller's
    net = tied_network(monkeypatch, 24)
    op, Y = kron_reduce(net)
    tracemalloc.start()
    try:
        build_K(net, op, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * net.n ** 2


@pytest.mark.parametrize("name", ["case39", "case118", "tied x2"])
def test_slow_modes_are_bitwise_the_dense_formula(name, monkeypatch):
    net = named_network(name, monkeypatch)
    K = build_K(net, *kron_reduce(net))
    m = inertia(net)
    for r in (1, 2, 5, 8):
        vals, U = slow_modes(m, K, r)
        ref_vals, ref_U = dense_slow_modes(np.diag(m), K, r)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(U, ref_U)


def test_slow_modes_reject_a_coupling_matrix_that_is_not_symmetric():
    net = two_gen_net()
    K = build_K(net, *kron_reduce(net))
    K[0, 1] = np.nextafter(K[0, 1], np.inf)
    with pytest.raises(ModelError, match="not exactly symmetric"):
        slow_modes(inertia(net), K, 1)


def test_slow_modes_reject_inertias_of_the_wrong_length():
    net = two_gen_net()
    K = build_K(net, *kron_reduce(net))
    with pytest.raises(ModelError, match="inertias"):
        slow_modes(np.diag(inertia(net)), K, 1)


def loop_build_K(net, op, Y):
    """build_K as the O(n^2) loop over entries it replaced; the reference."""
    n = net.n
    delta = internal_angles(net, op)
    V = np.array(net.v.tolist())
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                K[i, j] = V[i] * V[j] * Y[i, j] * np.cos(delta[i] - delta[j])
    np.fill_diagonal(K, -K.sum(axis=1))
    return 0.5 * (K + K.T)


@pytest.mark.parametrize("name", ["case39", "case118", "tied x2"])
def test_build_K_is_bitwise_the_loop(name, monkeypatch):
    net = named_network(name, monkeypatch)
    op, Y = kron_reduce(net)
    np.testing.assert_array_equal(build_K(net, op, Y), loop_build_K(net, op, Y))


@pytest.mark.parametrize("name", ["case118", "tied x2"])
def test_an_uncoupled_pair_is_positive_zero_in_K(name, monkeypatch):
    # no cosine is taken where Y_ij = 0, so K_ij = V_i V_j 0 = +0.0 even
    # where cos(delta_i - delta_j) < 0; bus angles spread over [0, 3]
    # make such pairs
    net = named_network(name, monkeypatch)
    op, Y = kron_reduce(net)
    op = OperatingPoint(np.linspace(0.0, 3.0, net.m), op.flows, op.injections)
    uncoupled = (Y == 0) & ~np.eye(net.n, dtype=bool)
    delta = internal_angles(net, op)
    assert (np.cos(np.subtract.outer(delta, delta))[uncoupled] < 0).any()
    K = build_K(net, op, Y)
    assert (K[uncoupled] == 0).all() and not np.signbit(K[uncoupled]).any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_and_coupling_invariants(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 12)),
                         extra_edges=int(rng.integers(0, 5)))
    op, Y = kron_reduce(net)
    np.testing.assert_array_equal(Y, Y.T)
    assert not np.diag(Y).any()
    assert Y.min() >= 0.0   # couplings nonnegative
    K = build_K(net, op, Y)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-8)
    np.testing.assert_allclose(K, K.T, atol=1e-9)


def test_internal_angles_advance_across_xd(case39):
    op = dc_power_flow(case39)
    delta = internal_angles(case39, op)
    pos = bus_pos(case39)
    gens = zip(case39.gen_bus.tolist(), case39.xd_prime.tolist(),
               case39.pg.tolist(), case39.v.tolist())
    for k, (bus, xd, pg, v) in enumerate(gens):
        theta = op.angles[pos[bus]]
        assert delta[k] >= theta - 1e-12  # positive dispatch advances the rotor
        assert delta[k] == theta + xd * (pg / case39.base_mva) / v


def test_slow_modes_are_eigenpairs(pipe39):
    _, model, _ = pipe39
    for k in range(model.U.shape[1]):
        lhs = model.K @ model.U[:, k]
        rhs = model.sigma_r[k] * (model.M * model.U[:, k])
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.abs(model.K).max())


def test_slow_modes_pick_smallest_magnitude(pipe39):
    _, model, _ = pipe39
    d = np.sqrt(model.M)
    full = np.linalg.eigvalsh(model.K / np.outer(d, d))
    slowest = sorted(np.abs(full))[: len(model.sigma_r)]
    np.testing.assert_allclose(sorted(np.abs(model.sigma_r)), slowest, atol=1e-8)


def test_slow_modes_break_ties_by_magnitude_then_value_then_index():
    # blocks [[0, a], [a, 0]] have eigenvalues -a and a, exactly; with
    # M = 1, eigh's ascending spectrum is
    #   index:  0     1     2     3     4     5     6    7    8    9    10
    #   value: -1.5  -1.5  -1.5  -1.5  -1.5  -0.5  -0.5  0.5  1.5  1.5  2.0
    K = np.zeros((11, 11))
    for at, a in ((0, 1.5), (3, 0.5), (9, 1.5)):
        K[at, at + 1] = K[at + 1, at] = a
    K[[2, 5, 6, 7, 8], [2, 5, 6, 7, 8]] = -1.5, -1.5, 2.0, -0.5, -1.5
    vals, vecs = np.linalg.eigh(K)
    assert vals.tolist() == [-1.5] * 5 + [-0.5, -0.5, 0.5, 1.5, 1.5, 2.0]
    order = [5, 6, 7, 0, 1, 2, 3, 4, 8, 9, 10]
    for r in range(1, 12):
        sigma, U = slow_modes(np.ones(11), K, r)
        assert sigma.tolist() == vals[order[:r]].tolist()
        assert np.array_equal(U, vecs[:, order[:r]])


def test_slow_modes_r_out_of_range():
    net = two_gen_net()
    op = dc_power_flow(net)
    K = build_K(net, op, kron_reduce(net)[1])
    with pytest.raises(ModelError):
        slow_modes(inertia(net), K, 3)


def test_coherency_rows_at_references_are_identity(pipe39):
    _, model, _ = pipe39
    rows = model.L[list(model.refs), :]
    np.testing.assert_allclose(rows, np.eye(len(model.refs)), atol=1e-9)


def test_coherency_rows_sum_to_one(pipe39):
    # the uniform drift mode lies in the slow eigenspace, so each
    # generator's coherency weights over the references sum to 1
    _, model, _ = pipe39
    np.testing.assert_allclose(model.L.sum(axis=1), 1.0, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_coherency_invariant_to_basis_change(seed):
    rng = np.random.default_rng(seed)
    n, r = 6, 3
    U = rng.normal(size=(n, r))
    R = rng.normal(size=(r, r)) + 3 * np.eye(r)
    L1 = coherency_matrix(U, [0, 1, 2])
    L2 = coherency_matrix(U @ R, [0, 1, 2])
    np.testing.assert_allclose(L1, L2, atol=1e-6)


def test_coherency_rejects_dependent_reference_rows():
    U = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match="dependent"):
        coherency_matrix(U, [0, 1])


@pytest.mark.parametrize("refs", [[0, 99], [0, 10], [0.0, 4], [0, -1],
                                  [0, 0], [True, 4]],
                         ids=["99", "n", "float", "negative", "repeated", "bool"])
def test_build_model_rejects_references_that_are_not_distinct_indices(
        case39, refs):
    op = dc_power_flow(case39)
    with pytest.raises(ModelError, match=r"distinct generator indices in \[0, 10\)"):
        build_model(case39, op, refs)


def test_build_model_case39(case39):
    op = dc_power_flow(case39)
    model = build_model(case39, op, [0, 4, 8])
    assert model.U.shape == (10, 3)
    assert model.L.shape == (10, 3)
    assert abs(model.sigma_r[0]) < 1e-8  # drift mode present


def assert_prelude_is_bitwise_the_dict_reference(net):
    """Pivots, angles, flows and injections, the couplings Y and K
    bitwise the dict-of-dicts elimination's and its dense grounded
    solve's; a network with two generators on one bus has an operating
    point but no reduction."""
    ref_op, ref_Y, ref_pivots = prelude_reference(net)
    pivots = _star_mesh(net, kept_buses_reference(net), [0.0] * net.m)[0]
    assert [(k, Yk, list(star.items())) for k, Yk, star in pivots] == [
        (k, Yk, list(star.items())) for k, Yk, star in ref_pivots]
    op = dc_power_flow(net)
    if len(set(net.gen_pos.tolist())) < net.n:
        with pytest.raises(ModelError, match="two generators share a bus"):
            kron_reduce(net)
    else:
        kron_op, Y = kron_reduce(net)
        assert Y.tobytes() == ref_Y.tobytes()
        assert (build_K(net, op, Y).tobytes()
                == build_K(net, ref_op, ref_Y).tobytes())
        for name in ("angles", "flows", "injections"):
            assert (getattr(kron_op, name).tobytes()
                    == getattr(op, name).tobytes()), name
    for name in ("angles", "flows", "injections"):
        assert getattr(op, name).tobytes() == getattr(ref_op, name).tobytes(), name


@pytest.mark.parametrize("name", ["case39", "case118", "meshed-120 1",
                                  "meshed-120 2", "tied x2", "tied x4",
                                  "tied x24"])
def test_prelude_is_bitwise_the_dict_reference_on_cases(name, monkeypatch):
    assert_prelude_is_bitwise_the_dict_reference(
        named_network(name, monkeypatch))


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(44)    # FFFF, KFFF
@example(75)    # KFKF
@example(122)   # FKFK, FKKF
@example(153)   # FKKK, KKFK
def test_prelude_is_bitwise_the_dict_reference_with_parallel_lines(seed):
    # parallel twins of random lines, and lines (some doubled) between two
    # generator buses, whose weights the reduction never reads.  A third
    # of the draws put generators at a quarter to a half of the buses and
    # a third at most buses, up to m - 1, so that the reduction's stars
    # mix kept (K) and free (F) neighbours in every order.  Stars of three
    # and four go through one loop: each of the 8 orders of a star of
    # three occurs in 34 or more of seeds 0..249, and each of the 16 of a
    # star of four in 6 or more.  The examples hold the seven orders of
    # four that occur in fewer than 10 of those seeds.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    band = rng.random()
    if band < 1 / 3:
        n_gens = int(rng.integers(1, min(7, m)))
    elif band < 2 / 3:
        n_gens = int(rng.integers(max(1, m // 4), max(2, m // 2)))
    else:
        n_gens = int(rng.integers(m // 2, m))
    doc = random_case_doc(rng, m=m, extra_edges=int(rng.integers(0, m)),
                          n_gens=n_gens)
    lines = doc["branches"]
    for _ in range(int(rng.integers(0, 5))):
        twin = dict(lines[int(rng.integers(len(lines)))])
        twin["x_pu"] = float(rng.uniform(0.01, 0.2))
        lines.insert(int(rng.integers(len(lines) + 1)), twin)
    gen_buses = [g["bus"] for g in doc["gens"]]
    for _ in range(int(rng.integers(0, 4)) if n_gens > 1 else 0):
        a, b = rng.choice(gen_buses, size=2, replace=False).tolist()
        for _ in range(int(rng.integers(1, 3))):
            lines.append({"from": a, "to": b,
                          "x_pu": float(rng.uniform(0.01, 0.2))})
    # the slack moved to any bus in half the draws, and in a quarter a
    # second generator on the first one's bus
    if rng.random() < 0.5:
        doc["slack_bus"] = int(rng.integers(1, m + 1))
    if rng.random() < 0.25:
        doc["gens"].append({**doc["gens"][0], "pg_mw": 0.0, "pg_max_mw": 0.0})
    assert_prelude_is_bitwise_the_dict_reference(parse_case(json.dumps(doc)))


_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin sum of Python 3.12 and later, where floats are summed
    with Neumaier's compensation (gh-100425).  Anything but exact floats
    goes to the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or not all(
            type(x) is float for x in items):
        return _builtin_sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    # the compensation is added only where it is finite and nonzero
    return total + c if c and math.isfinite(c) else total


def test_compensated_sum_is_the_sum_of_python_3_12():
    # 3.12's own example: the uncompensated sum gives 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert compensated_sum([1, 2], 3) == 6 and compensated_sum([]) == 0


@pytest.mark.parametrize("name", ["case39", "case118", "tied x24"])
def test_prelude_bits_do_not_depend_on_the_python_version(name, monkeypatch):
    # every float sum of the prelude is written out left to right, so the
    # compensated builtin sum of Python 3.12 changes no bit
    net = named_network(name, monkeypatch)

    def outputs():
        op, Y = kron_reduce(net)
        return [a.tobytes() for a in (op.angles, op.flows, Y,
                                      build_K(net, op, Y))]

    want = outputs()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert outputs() == want


def test_report_does_not_depend_on_the_python_version(monkeypatch, capsys):
    argv = ["run", "--case", os.path.join(ROOT, "data", "case118.json"),
            "--method", "both", "--dump-model"]
    want = main(argv), capsys.readouterr()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert (main(argv), capsys.readouterr()) == want


def test_kron_peak_memory_at_ten_thousand_buses(monkeypatch):
    # traced: Y, n^2 floats, plus the rows of the eliminated buses and
    # the kept-pair updates, which stay well below n^2 at this size; the
    # grounded solve is built in Y's own buffer, and LAPACK's copy of it
    # is not traced
    net = tied_network(monkeypatch, 84)
    assert net.n == 1596
    tracemalloc.start()
    try:
        kron_reduce(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * net.n ** 2
