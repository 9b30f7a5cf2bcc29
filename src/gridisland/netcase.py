"""Network model: case parsing, graph layout and DC power flow.

The native case format is a single JSON document::

    {"base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": 31,
     "buses":    [{"id": 1, "pd_mw": 97.6, "pd_max_mw": 97.6}, ...],
     "branches": [{"from": 1, "to": 2, "x_pu": 0.0411}, ...],
     "gens":     [{"bus": 39, "pg_mw": 1000.0, "pg_max_mw": 1100.0,
                   "inertia_s": 500.0, "xd_prime_pu": 0.006, "vm_pu": 1.0}, ...]}

A MATPOWER-style importer accepts the numeric ``mpc.bus`` / ``mpc.gen`` /
``mpc.branch`` tables of a ``.m`` file (other fields are ignored) and
drops out-of-service lines and generators (status 0); machine dynamics
then come from a companion JSON document mapping bus id to
``{"inertia_s": ..., "xd_prime_pu": ..., "vm_pu": ...}``; a unit with no
entry there is a fixed injection.  Both formats share one construction
path, ``_from_native``.

PowerNetwork owns the graph layout every stage reads: bus positions
(``bus_pos``, buses sorted by id), the positions of each line's two ends
(``ends``, canonical line order) and of each generator (``gen_pos``).
``component_labels`` labels the components of any line set, and
``forest_walk`` roots a forest at given buses.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class CaseError(Exception):
    """Malformed or inconsistent case input."""


@dataclass(frozen=True, slots=True)
class Bus:
    id: int
    d0: float          # MW demand at the operating point
    d_max: float       # MW maximum desired load
    g0: float = 0.0    # MW dispatched generation (filled from gens)
    g_max: float = 0.0


@dataclass(frozen=True, slots=True)
class Branch:
    index: int         # canonical edge index
    i: int             # smaller endpoint bus id
    j: int             # larger endpoint bus id
    x: float           # series reactance, p.u.

    @property
    def name(self) -> str:
        return f"{self.i}-{self.j}"


@dataclass(frozen=True, slots=True)
class Gen:
    bus: int
    pg: float          # MW
    pg_max: float      # MW
    inertia: float     # seconds on system base
    xd_prime: float    # p.u.
    v: float = 1.0     # p.u. voltage behind transient reactance


@dataclass(frozen=True)
class PowerNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]   # canonical order
    gens: tuple[Gen, ...]
    base_mva: float
    base_freq: float               # rad/s
    slack_bus: int

    @property
    def m(self) -> int:
        return len(self.buses)

    @property
    def l(self) -> int:
        return len(self.branches)

    @property
    def n(self) -> int:
        return len(self.gens)

    def d0_vector(self) -> np.ndarray:
        return np.array([b.d0 for b in self.buses])

    def g0_vector(self) -> np.ndarray:
        return np.array([b.g0 for b in self.buses])

    @cached_property
    def bus_pos(self) -> dict[int, int]:
        """Bus id -> position in `buses`."""
        return {b.id: k for k, b in enumerate(self.buses)}

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Bus positions of the two ends of every line, canonical order."""
        pos = self.bus_pos
        return (_frozen([pos[br.i] for br in self.branches]),
                _frozen([pos[br.j] for br in self.branches]))

    @cached_property
    def gen_pos(self) -> np.ndarray:
        """Bus position of every generator, in file order."""
        return _frozen([self.bus_pos[g.bus] for g in self.gens])


def _frozen(positions: list[int]) -> np.ndarray:
    """A read-only intp array: the layout is shared by every stage."""
    out = np.array(positions, dtype=np.intp)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class OperatingPoint:
    angles: np.ndarray       # radians per bus
    flows: np.ndarray        # MW per branch, positive from smaller to larger id
    injections: np.ndarray   # b0 = d0 - g0 (MW), balanced at the slack


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _validate(net: PowerNetwork) -> PowerNetwork:
    if not (_finite(net.base_mva, net.base_freq)
            and net.base_mva > 0 and net.base_freq > 0):
        raise CaseError("base MVA and base frequency must be finite and positive")
    seen = set()
    for b in net.buses:
        if b.id in seen:
            raise CaseError(f"duplicate bus id {b.id}")
        seen.add(b.id)
        if not _finite(b.d0, b.d_max, b.g0, b.g_max):
            raise CaseError(f"non-finite load/generation at bus {b.id}")
        if b.d0 < 0 or b.d_max < 0 or b.g0 < 0 or b.g_max < 0:
            raise CaseError(f"negative load/generation limit at bus {b.id}")
    for br in net.branches:
        if br.i not in seen or br.j not in seen:
            raise CaseError(f"branch {br.name} references unknown bus")
        if not _finite(br.x):
            raise CaseError(f"branch {br.name} has non-finite reactance")
        if br.x <= 0:
            raise CaseError(f"branch {br.name} has nonpositive reactance")
        if br.i == br.j:
            raise CaseError(f"branch {br.name} is a self-loop")
    for g in net.gens:
        if not _finite(g.pg, g.pg_max, g.inertia, g.xd_prime, g.v):
            raise CaseError(f"generator at bus {g.bus} has a non-finite field")
        if g.xd_prime <= 0:
            raise CaseError(f"generator at bus {g.bus} has nonpositive xd'")
        if g.inertia <= 0 or g.v <= 0:
            raise CaseError(
                f"generator at bus {g.bus} has nonpositive inertia or voltage")
    if net.slack_bus not in seen:
        raise CaseError(f"slack bus {net.slack_bus} is not a known bus")
    # the slack bus exists, so m >= 1 and a connected graph labels all 0
    if component_labels(net, range(net.l)).any():
        raise CaseError("network graph is not connected")
    return net


def component_labels(net: PowerNetwork, S) -> np.ndarray:
    """Bus position -> smallest bus position in its component of (V, S)."""
    parent = list(range(net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ei, ej = (x.tolist() for x in net.ends)
    for e in S:
        a, b = find(ei[e]), find(ej[e])
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return np.array([find(b) for b in range(net.m)], dtype=np.intp)


def forest_walk(net: PowerNetwork, S, roots) -> tuple | None:
    """Root the forest of lines S at the bus positions `roots`.

    A stack-based preorder visits each subtree in one run.  Returns per
    bus the index in `roots` of its root and its preorder position, and
    per line of S the range [lo, hi) of positions below it; or None
    unless every bus is reached once.  A bus reached twice means a cycle,
    a repeated line or two roots in one tree; one never reached, a tree
    with no root.
    """
    S = list(S)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.m)]
    for e, i, j in zip(S, *(x[S].tolist() for x in net.ends)):
        adj[i].append((j, e))
        adj[j].append((i, e))
    tree = np.full(net.m, -1, dtype=np.intp)
    at, below, k = np.empty(net.m, dtype=np.intp), {}, 0
    stack = [(int(p), -1, t) for t, p in enumerate(roots)]   # (bus, line up, root)
    while stack:
        u, line, t = stack.pop()
        if u < 0:   # marker: the run of buses below `line` ends here
            below[line] = (below[line], k)
        elif tree[u] >= 0:
            return None
        else:
            below[line], tree[u], at[u], k = k, t, k, k + 1
            stack += [(-1, line, t)] + [(w, e, t) for w, e in adj[u] if e != line]
    below.pop(-1, None)   # the roots' entry
    return (tree, at, below) if k == net.m else None


def _canonical_branches(raw: list[tuple[int, int, float]]) -> tuple[Branch, ...]:
    # sort by (min id, max id, file order); parallel lines stay distinct
    keyed = sorted(
        (min(i, j), max(i, j), pos, x) for pos, (i, j, x) in enumerate(raw)
    )
    return tuple(Branch(k, i, j, x) for k, (i, j, _, x) in enumerate(keyed))


def _bus_id(value) -> int:
    """A bus number: an integral int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"bus number {value!r} is not an integer")
    return int(value)


def _from_native(doc: dict, static_pg: dict | None = None) -> PowerNetwork:
    """The network of a native document; static_pg (bus id -> MW of units
    without dynamic data) adds to g0 and g_max after the generators."""
    try:
        base_mva = float(doc["base_mva"])
        base_freq = 2 * np.pi * float(doc.get("base_freq_hz", 60.0))
        slack = _bus_id(doc["slack_bus"])
        gens = tuple(
            Gen(
                bus=_bus_id(g["bus"]),
                pg=float(g["pg_mw"]),
                pg_max=float(g.get("pg_max_mw", g["pg_mw"])),
                inertia=float(g["inertia_s"]),
                xd_prime=float(g["xd_prime_pu"]),
                v=float(g.get("vm_pu", 1.0)),
            )
            for g in doc["gens"]
        )
        pg, pg_max = {}, {}
        for g in gens:
            pg[g.bus] = pg.get(g.bus, 0.0) + g.pg
            pg_max[g.bus] = pg_max.get(g.bus, 0.0) + g.pg_max
        for bus, mw in (static_pg or {}).items():
            pg[bus] = pg.get(bus, 0.0) + mw
            pg_max[bus] = pg_max.get(bus, 0.0) + mw
        keyed = [(_bus_id(b["id"]), b) for b in doc["buses"]]
        buses = tuple(
            Bus(
                id=i,
                d0=float(b["pd_mw"]),
                d_max=float(b.get("pd_max_mw", b["pd_mw"])),
                g0=pg.get(i, 0.0),
                g_max=pg_max.get(i, 0.0),
            )
            for i, b in sorted(keyed, key=lambda ib: ib[0])
        )
        branches = _canonical_branches([
            (_bus_id(b["from"]), _bus_id(b["to"]), float(b["x_pu"]))
            for b in doc["branches"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CaseError(f"malformed case document: {exc}") from exc
    unknown = pg.keys() - {b.id for b in buses}
    if unknown:
        raise CaseError(f"generator at unknown bus {min(unknown)}")
    return _validate(
        PowerNetwork(buses, branches, gens, base_mva, base_freq, slack)
    )


_MPC_TABLE = re.compile(
    r"mpc\.(?P<name>bus|gen|branch)\s*=\s*\[(?P<body>.*?)\]\s*;", re.S
)
_MPC_BASE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;")
_MPC_COLUMNS = {"bus": 3, "gen": 2, "branch": 4}  # columns the importer reads


def _parse_matpower(case_text: str, dyn_text: str) -> PowerNetwork:
    tables: dict[str, list[list[float]]] = {}
    for match in _MPC_TABLE.finditer(case_text):
        name = match.group("name")
        rows = []
        for line in match.group("body").splitlines():
            line = line.split("%")[0].strip().rstrip(";")
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError as exc:
                raise CaseError(f"mpc.{name}: {exc}") from exc
            if not _finite(*row):
                raise CaseError(f"mpc.{name} has a non-finite entry")
            if len(row) < _MPC_COLUMNS[name]:
                raise CaseError(f"mpc.{name} row {line!r} has fewer than "
                                f"{_MPC_COLUMNS[name]} columns")
            if any(x % 1 for x in row[:2 if name == "branch" else 1]):
                raise CaseError(f"mpc.{name} row {line!r}: bus number not an integer")
            rows.append(row)
        tables[name] = rows
    missing = {"bus", "gen", "branch"} - tables.keys()
    if missing:
        raise CaseError(f"MATPOWER case missing tables: {sorted(missing)}")
    base = _MPC_BASE.search(case_text)
    try:
        base_mva = float(base.group(1)) if base else 100.0
        dyn = json.loads(dyn_text) if dyn_text else {}
    except (ValueError, RecursionError) as exc:
        raise CaseError(f"malformed baseMVA or dynamics document: {exc}") from exc
    if not dyn:
        raise CaseError("MATPOWER import requires a dynamics document")

    slacks = [int(row[0]) for row in tables["bus"] if int(row[1]) == 3]
    if len(slacks) != 1:
        raise CaseError(f"MATPOWER case needs one slack (type 3) bus, not "
                        f"{len(slacks)}: {slacks}")

    try:
        doc = {
            "base_mva": base_mva,
            "base_freq_hz": float(dyn.get("base_freq_hz", 60.0)),
            "slack_bus": slacks[0],
            "buses": [
                {"id": int(r[0]), "pd_mw": r[2]} for r in tables["bus"]
            ],
            "branches": [
                {"from": int(r[0]), "to": int(r[1]), "x_pu": r[3]}
                for r in tables["branch"]
                if len(r) < 11 or r[10] != 0  # drop out-of-service lines
            ],
            "gens": [],
        }
        machines = dyn.get("machines", dyn)
        static_pg: dict[int, float] = {}
        for r in tables["gen"]:
            if len(r) > 7 and r[7] <= 0:   # drop out-of-service generators
                continue
            bus = int(r[0])
            mach = machines.get(str(bus))
            if mach is None:   # a unit without dynamic data still injects power
                static_pg[bus] = static_pg.get(bus, 0.0) + r[1]
                continue
            doc["gens"].append(
                {
                    "bus": bus,
                    "pg_mw": r[1],
                    "pg_max_mw": r[8] if len(r) > 8 else r[1],
                    "inertia_s": mach["inertia_s"],
                    "xd_prime_pu": mach["xd_prime_pu"],
                    "vm_pu": mach.get("vm_pu", 1.0),
                }
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CaseError(f"malformed dynamics document: {exc!r}") from exc
    return _from_native(doc, static_pg)


def parse_case(case_text: str, dyn_text: str | None = None) -> PowerNetwork:
    """Parse a native JSON case, or a MATPOWER table subset plus dynamics."""
    if not case_text or not case_text.strip():
        raise CaseError("empty case text")
    stripped = case_text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(case_text)
        except json.JSONDecodeError as exc:
            raise CaseError(
                f"JSON syntax error at line {exc.lineno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise CaseError("JSON document nested too deeply") from exc
        return _from_native(doc)
    if "mpc." in case_text:
        return _parse_matpower(case_text, dyn_text or "")
    raise CaseError("unrecognized case format")


def serialize_case(net: PowerNetwork) -> str:
    """Emit a native JSON document that parses back to net; a network it
    cannot hold exactly (generation without dynamic data) is a CaseError."""
    doc = {
        "base_mva": net.base_mva,
        "base_freq_hz": net.base_freq / (2 * np.pi),
        "slack_bus": net.slack_bus,
        "buses": [
            {"id": b.id, "pd_mw": b.d0, "pd_max_mw": b.d_max} for b in net.buses
        ],
        "branches": [
            {"from": br.i, "to": br.j, "x_pu": br.x} for br in net.branches
        ],
        "gens": [
            {
                "bus": g.bus, "pg_mw": g.pg, "pg_max_mw": g.pg_max,
                "inertia_s": g.inertia, "xd_prime_pu": g.xd_prime, "vm_pu": g.v,
            }
            for g in net.gens
        ],
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    if parse_case(text) != net:
        raise CaseError("the native format cannot hold this network exactly "
                        "(for example, generation without dynamic data)")
    return text


def incidence_matrix(net: PowerNetwork, S=None) -> np.ndarray:
    """Signed bus-by-line incidence matrix for the edge subset S.

    The column of edge (i, j) with i < j carries +1 at bus i and -1 at
    bus j.  Columns follow the canonical edge order.  S is an iterable of
    canonical edge indices; None selects every edge.  No run calls it.
    """
    idx = list(range(net.l)) if S is None else sorted(S)
    bad = [k for k in idx if not 0 <= k < net.l]
    if bad:
        raise CaseError(f"edge index {bad[0]} outside the edge set")
    A = np.zeros((net.m, len(idx)))
    cols = np.arange(len(idx))
    ei, ej = net.ends
    A[ei[idx], cols] = 1.0
    A[ej[idx], cols] = -1.0
    return A


def _star_mesh(net: PowerNetwork, keep, p=None, error=CaseError):
    """Eliminate every bus position outside keep by star-mesh transforms.

    The network is the Laplacian of the line weights 1/x, held as a
    dict-of-dicts.  Eliminating bus k with neighbour weights y_kj and
    pivot Y_k = sum_j y_kj adds y_ki y_kj / Y_k to the weight of every
    neighbour pair (i, j): one step of Gaussian elimination, so the
    graph that remains is the Schur complement onto the buses left.
    Buses go in minimum-degree order, ties to the lowest position.  When
    p (a per-bus list) is given, each neighbour i also gains
    y_ki p_k / Y_k, the right-hand side of the same elimination.

    Returns the remaining weights (position -> {neighbour: weight}, empty
    rows for eliminated buses) and the pivots (k, Y_k, {j: y_kj}) in
    elimination order.  A pivot that is not finite and positive raises
    `error`.
    """
    import heapq

    adj: list[dict[int, float]] = [{} for _ in range(net.m)]
    for a, b, br in zip(*(x.tolist() for x in net.ends), net.branches):
        y = adj[a].get(b, 0.0) + 1.0 / br.x
        adj[a][b] = adj[b][a] = y
    kept = set(keep)
    heap = [(len(adj[k]), k) for k in range(net.m) if k not in kept]
    heapq.heapify(heap)
    pivots = []
    while heap:
        deg, k = heapq.heappop(heap)
        star = adj[k]
        if deg != len(star):   # stale entry; eliminated rows are empty
            continue
        Y = sum(star.values())
        if not 0.0 < Y < math.inf:
            raise error(f"singular or non-finite susceptance pivot at bus "
                        f"{net.buses[k].id}")
        nbrs = list(star.items())
        for s, (i, y_ki) in enumerate(nbrs):
            row = adj[i]
            del row[k]
            frac = y_ki / Y
            if p is not None:
                p[i] += frac * p[k]
            for j, y_kj in nbrs[s + 1:]:
                w = row.get(j, 0.0) + frac * y_kj
                row[j] = adj[j][i] = w
        for i, _ in nbrs:
            if i not in kept:
                heapq.heappush(heap, (len(adj[i]), i))
        adj[k] = {}
        pivots.append((k, Y, star))
    return adj, pivots


def dc_power_flow(net: PowerNetwork) -> OperatingPoint:
    """Solve B'theta = P with the slack angle fixed at zero.

    Every bus but the slack is eliminated by `_star_mesh`, carrying the
    injections along; the angles then follow by back substitution in
    reverse elimination order.  Any load-generation mismatch in the case
    dispatch is absorbed by the slack bus before solving, so the returned
    injections sum to zero.
    """
    slack = net.bus_pos[net.slack_bus]
    g0 = net.g0_vector().copy()
    d0 = net.d0_vector()
    g0[slack] += d0.sum() - g0.sum()

    p_inj = ((g0 - d0) / net.base_mva).tolist()
    _, pivots = _star_mesh(net, [slack], p_inj)
    theta = [0.0] * net.m
    for k, Y, star in reversed(pivots):
        theta[k] = (p_inj[k] + sum(y * theta[j] for j, y in star.items())) / Y

    theta = np.array(theta)
    ei, ej = net.ends
    x = np.array([br.x for br in net.branches])
    flows = (theta[ei] - theta[ej]) / x * net.base_mva
    return OperatingPoint(angles=theta, flows=flows, injections=d0 - g0)
