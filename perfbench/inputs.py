"""Seeded case files for the three benchmark workloads.

Every generator is a pure function of the seed: the same seed gives
byte-identical JSON text.  The program under test only ever sees the
written files.
"""

from __future__ import annotations

import json
import os

import numpy as np

MESHED_BUSES = 120
MESHED_EXTRA_LINES = 60
MESHED_GENS = 12
# Fixed draws from the random-network distribution.  Solve time varies
# more than 5x between draws at this size (0.6-7.1 s seen), so a seeded
# draw would make op_s.p50 a property of the draw; the seed instead
# permutes each network's file layout, as it does for case118-sweep.
MESHED_DRAWS = (1, 2)
TIED_COPIES = 24
TIED_LINKS = 3          # tie lines between consecutive copies
TIED_X_PU = 0.2
TIED_ID_STRIDE = 1000   # bus id of copy c, bus b is c * stride + b


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def load_case118(root: str) -> dict:
    with open(os.path.join(root, "data", "case118.json")) as fh:
        return json.load(fh)


def shuffled_case(doc: dict, seed) -> str:
    """The same network with buses and lines listed in a seeded order.

    Bus order and line direction do not enter the computation (the
    parser sorts buses by id and lines by endpoint pair), so every seed
    asks for exactly the same work.  Generator order does enter it and
    is kept, and so is the order among parallel lines, which breaks
    their canonical tie.
    """
    rng = np.random.default_rng(seed)
    buses = [doc["buses"][k] for k in rng.permutation(len(doc["buses"]))]
    lines = doc["branches"]
    order = [int(k) for k in rng.permutation(len(lines))]
    pair = [(min(b["from"], b["to"]), max(b["from"], b["to"])) for b in lines]
    queue: dict[tuple[int, int], list[int]] = {}
    for k in range(len(lines)):
        queue.setdefault(pair[k], []).append(k)
    branches = []
    for k in order:
        br = dict(lines[queue[pair[k]].pop(0)])
        if rng.random() < 0.5:
            br["from"], br["to"] = br["to"], br["from"]
        branches.append(br)
    return _dump({**doc, "buses": buses, "branches": branches})


def meshed_case(draw: int) -> dict:
    """Random meshed network: a random spanning tree plus extra lines.

    Same distribution as ``random_network`` in the test suite's
    conftest, at 120 buses, 60 extra lines and 12 generators.
    """
    rng = np.random.default_rng(draw)
    m, n_gens = MESHED_BUSES, MESHED_GENS
    edges = set()
    order = rng.permutation(m)
    for k in range(1, m):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b) + 1, max(a, b) + 1))
    tries = 0
    while len(edges) < m - 1 + MESHED_EXTRA_LINES and tries < 200:
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
            {"from": i, "to": j,
             "x_pu": float(np.round(rng.uniform(0.01, 0.2), 4))}
            for i, j in sorted(edges)
        ],
        "gens": [
            {"bus": int(gen_buses[k]),
             "pg_mw": float(np.round(total * share[k], 1)),
             "pg_max_mw": float(np.round(total * share[k] * 1.5 + 50.0, 1)),
             "inertia_s": float(np.round(rng.uniform(2.0, 60.0), 2)),
             "xd_prime_pu": float(np.round(rng.uniform(0.02, 0.3), 4)),
             "vm_pu": 1.0}
            for k in range(n_gens)
        ],
    }
    return doc


def tied_case(doc: dict, seed: int) -> str:
    """Copies of one case joined in a ring by seeded weak tie lines."""
    rng = np.random.default_rng(seed)
    ids = [b["id"] for b in doc["buses"]]
    buses, branches, gens = [], [], []
    for c in range(TIED_COPIES):
        off = c * TIED_ID_STRIDE
        buses += [{**b, "id": b["id"] + off} for b in doc["buses"]]
        branches += [{**br, "from": br["from"] + off, "to": br["to"] + off}
                     for br in doc["branches"]]
        gens += [{**g, "bus": g["bus"] + off} for g in doc["gens"]]
    for c in range(TIED_COPIES):
        nxt = (c + 1) % TIED_COPIES
        for _ in range(TIED_LINKS):
            a, b = (int(ids[k]) for k in rng.integers(0, len(ids), size=2))
            branches.append({"from": a + c * TIED_ID_STRIDE,
                             "to": b + nxt * TIED_ID_STRIDE,
                             "x_pu": TIED_X_PU})
    return _dump({**doc, "buses": buses, "branches": branches, "gens": gens})


def case_texts(workload: str, seed: int, root: str) -> list[str]:
    """The case documents one run of `workload` cycles through."""
    if workload == "case118-sweep":
        return [shuffled_case(load_case118(root), seed)]
    if workload == "meshed-120":
        return [shuffled_case(meshed_case(d), (seed, d)) for d in MESHED_DRAWS]
    if workload == "tied118-refsel":
        return [tied_case(load_case118(root), seed)]
    raise ValueError(f"unknown workload {workload!r}")


def case_shape(text: str) -> dict:
    """m, l, n and byte size of one case document."""
    doc = json.loads(text)
    return {"m": len(doc["buses"]), "l": len(doc["branches"]),
            "n": len(doc["gens"]), "bytes": len(text.encode())}
