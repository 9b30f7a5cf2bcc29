import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.coherency import (
    ModelError,
    build_K,
    build_model,
    coherency_matrix,
    inertia_matrix,
    internal_angles,
    kron_reduce,
    slow_modes,
)
from gridisland.netcase import dc_power_flow, parse_case

from casekit import random_network


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


def test_reduction_sign_convention():
    # a single line of susceptance 5 between two generator buses:
    # reduced off-diagonal is -5, coupling entry is +5
    net = two_gen_net(x=0.2)
    op = dc_power_flow(net)
    B = kron_reduce(net, op)
    assert B[0, 1] == pytest.approx(-5.0)
    K = build_K(net, op, B)
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
    op = dc_power_flow(net)
    W = np.zeros((net.m, net.m))
    for br in net.branches:
        a, b = net.bus_pos[br.i], net.bus_pos[br.j]
        y = 1.0 / br.x
        W[a, a] += y
        W[b, b] += y
        W[a, b] -= y
        W[b, a] -= y
    keep = [net.bus_pos[g.bus] for g in net.gens]
    expected = elementwise_elimination(W, keep)
    np.testing.assert_allclose(kron_reduce(net, op), expected, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_and_coupling_invariants(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 12)),
                         extra_edges=int(rng.integers(0, 5)))
    op = dc_power_flow(net)
    B = kron_reduce(net, op)
    np.testing.assert_allclose(B, B.T, atol=1e-9)
    np.testing.assert_allclose(B.sum(axis=1), 0.0, atol=1e-8)
    off = B - np.diag(np.diag(B))
    assert off.max() <= 1e-9  # off-diagonals nonpositive
    K = build_K(net, op, B)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-8)
    np.testing.assert_allclose(K, K.T, atol=1e-9)


def test_internal_angles_advance_across_xd(case39):
    op = dc_power_flow(case39)
    delta = internal_angles(case39, op)
    for k, g in enumerate(case39.gens):
        theta = op.angles[case39.bus_pos[g.bus]]
        assert delta[k] >= theta - 1e-12  # positive dispatch advances the rotor


def test_slow_modes_are_eigenpairs(pipe39):
    _, model, _ = pipe39
    for k in range(model.U.shape[1]):
        lhs = model.K @ model.U[:, k]
        rhs = model.sigma_r[k] * (model.M @ model.U[:, k])
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.abs(model.K).max())


def test_slow_modes_pick_smallest_magnitude(pipe39):
    _, model, _ = pipe39
    d = np.sqrt(np.diag(model.M))
    full = np.linalg.eigvalsh(model.K / np.outer(d, d))
    slowest = sorted(np.abs(full))[: len(model.sigma_r)]
    np.testing.assert_allclose(sorted(np.abs(model.sigma_r)), slowest, atol=1e-8)


def test_slow_modes_r_out_of_range():
    net = two_gen_net()
    op = dc_power_flow(net)
    B = kron_reduce(net, op)
    K = build_K(net, op, B)
    with pytest.raises(ModelError):
        slow_modes(inertia_matrix(net), K, 3)


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


def test_build_model_case39(case39):
    op = dc_power_flow(case39)
    model = build_model(case39, op, 3, [0, 4, 8])
    assert model.U.shape == (10, 3)
    assert model.L.shape == (10, 3)
    assert abs(model.sigma_r[0]) < 1e-8  # drift mode present
