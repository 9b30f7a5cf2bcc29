"""Case loading, random test networks and the analysis pipeline.

Shared by the test modules and by the fixtures in conftest.py.
"""

import json
import os
import sys

import numpy as np

from gridisland.coherency import (
    build_K,
    build_model,
    inertia,
    kron_reduce,
    slow_modes,
)
from gridisland.metrics import build_context
from gridisland.netcase import dc_power_flow, parse_case
from gridisland.refsel import select_references_greedy

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")


def load_case(name):
    with open(os.path.join(DATA, name)) as fh:
        return parse_case(fh.read())


def tied_network(monkeypatch, copies, seed=7):
    """`copies` copies of case118 in a ring, from the benchmark's inputs.

    Made by ``perfbench/inputs.tied_case`` with its copy count patched,
    so the tests see the benchmark's tied118-refsel network at any size.
    """
    bench = os.path.join(ROOT, "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import inputs

    monkeypatch.setattr(inputs, "TIED_COPIES", copies)
    return parse_case(inputs.tied_case(inputs.load_case118(ROOT), seed))


def named_network(name, monkeypatch):
    """A bundled case by name ("case39"), or "tied xK" for K tied copies."""
    if name.startswith("tied x"):
        return tied_network(monkeypatch, int(name[len("tied x"):]))
    return load_case(f"{name}.json")


def bus_pos(net):
    """Bus id -> bus position, as a dict over the sorted bus_ids."""
    return dict(zip(net.bus_ids.tolist(), range(net.m)))


def line_ends(net):
    """(smaller, larger) bus id of every line as ints, canonical order."""
    return list(zip(net.line_i.tolist(), net.line_j.tolist()))


def random_network(rng, m=8, extra_edges=3, n_gens=3):
    """Random connected test network built through the public parser."""
    return parse_case(json.dumps(random_case_doc(rng, m, extra_edges, n_gens)))


def random_case_doc(rng, m=8, extra_edges=3, n_gens=3):
    """Native case document of a random connected network."""
    edges = set()
    order = rng.permutation(m)
    for k in range(1, m):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b) + 1, max(a, b) + 1))
    tries = 0
    while len(edges) < m - 1 + extra_edges and tries < 200:
        a, b = rng.integers(0, m, size=2)
        tries += 1
        if a != b:
            edges.add((int(min(a, b)) + 1, int(max(a, b)) + 1))
    gen_buses = 1 + rng.choice(m, size=n_gens, replace=False)
    loads = np.round(rng.uniform(10.0, 120.0, size=m), 1)
    loads[gen_buses - 1] = 0.0
    total = float(loads.sum())
    share = rng.dirichlet(np.ones(n_gens))
    doc = {
        "base_mva": 100.0,
        "base_freq_hz": 60.0,
        "slack_bus": int(gen_buses[0]),
        "buses": [
            {"id": b + 1, "pd_mw": float(loads[b]),
             "pd_max_mw": float(loads[b]) * 1.2}
            for b in range(m)
        ],
        "branches": [
            {"from": i, "to": j, "x_pu": float(np.round(rng.uniform(0.01, 0.2), 4))}
            for i, j in sorted(edges)
        ],
        "gens": [
            {"bus": int(gen_buses[k]), "pg_mw": float(np.round(total * share[k], 1)),
             "pg_max_mw": float(np.round(total * share[k] * 1.5 + 50.0, 1)),
             "inertia_s": float(np.round(rng.uniform(2.0, 60.0), 2)),
             "xd_prime_pu": float(np.round(rng.uniform(0.02, 0.3), 4)),
             "vm_pu": 1.0}
            for k in range(n_gens)
        ],
    }
    return doc


def pipeline(net, r=3, xi=1e-6, refs=None):
    """parse -> DC flow -> coherency -> reference selection -> context."""
    op = dc_power_flow(net)
    if refs is None:
        _, U = slow_modes(
            inertia(net), build_K(net, op, kron_reduce(net)[1]), r
        )
        refs = select_references_greedy(U, r).refs
    model = build_model(net, op, refs)
    ctx = build_context(net, op, model, xi)
    return op, model, ctx
