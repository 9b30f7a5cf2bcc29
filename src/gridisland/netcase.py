"""Network model: case parsing, incidence matrices and DC power flow.

The native case format is a single JSON document::

    {"base_mva": 100.0, "base_freq_hz": 60.0, "slack_bus": 31,
     "buses":    [{"id": 1, "pd_mw": 97.6, "pd_max_mw": 97.6}, ...],
     "branches": [{"from": 1, "to": 2, "x_pu": 0.0411}, ...],
     "gens":     [{"bus": 39, "pg_mw": 1000.0, "pg_max_mw": 1100.0,
                   "inertia_s": 500.0, "xd_prime_pu": 0.006, "vm_pu": 1.0}, ...]}

A MATPOWER-style importer accepts the numeric ``mpc.bus`` / ``mpc.gen`` /
``mpc.branch`` tables of a ``.m`` file (other fields are ignored); machine
dynamics then come from a companion JSON document mapping bus id to
``{"inertia_s": ..., "xd_prime_pu": ..., "vm_pu": ...}``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np


class CaseError(Exception):
    """Malformed or inconsistent case input."""


@dataclass(frozen=True)
class Bus:
    id: int
    d0: float          # MW demand at the operating point
    d_max: float       # MW maximum desired load
    g0: float = 0.0    # MW dispatched generation (filled from gens)
    g_max: float = 0.0


@dataclass(frozen=True)
class Branch:
    index: int         # canonical edge index
    i: int             # smaller endpoint bus id
    j: int             # larger endpoint bus id
    x: float           # series reactance, p.u.

    @property
    def name(self) -> str:
        return f"{self.i}-{self.j}"


@dataclass(frozen=True)
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

    # derived lookups, filled in __post_init__
    bus_pos: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "bus_pos", {b.id: k for k, b in enumerate(self.buses)}
        )

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

    def gen_positions(self) -> np.ndarray:
        """Bus positions (row indices) of the generators, in file order."""
        return np.array([self.bus_pos[g.bus] for g in self.gens])


@dataclass(frozen=True)
class OperatingPoint:
    angles: np.ndarray       # radians per bus
    flows: np.ndarray        # MW per branch, positive from smaller to larger id
    injections: np.ndarray   # b0 = d0 - g0 (MW), balanced at the slack
    g0_balanced: np.ndarray  # MW generation after slack balancing


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
        if g.bus not in seen:
            raise CaseError(f"generator at unknown bus {g.bus}")
        if not _finite(g.pg, g.pg_max, g.inertia, g.xd_prime, g.v):
            raise CaseError(f"generator at bus {g.bus} has a non-finite field")
        if g.xd_prime <= 0:
            raise CaseError(f"generator at bus {g.bus} has nonpositive xd'")
        if g.inertia <= 0 or g.v <= 0:
            raise CaseError(
                f"generator at bus {g.bus} has nonpositive inertia or voltage")
    if net.slack_bus not in seen:
        raise CaseError(f"slack bus {net.slack_bus} is not a known bus")
    if not _connected(net):
        raise CaseError("network graph is not connected")
    return net


def _connected(net: PowerNetwork) -> bool:
    if net.m == 0:
        return False
    adj: dict[int, list[int]] = {b.id: [] for b in net.buses}
    for br in net.branches:
        adj[br.i].append(br.j)
        adj[br.j].append(br.i)
    stack = [net.buses[0].id]
    seen = {net.buses[0].id}
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == net.m


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


def _from_native(doc: dict) -> PowerNetwork:
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
        pg = {}
        pg_max = {}
        for g in gens:
            pg[g.bus] = pg.get(g.bus, 0.0) + g.pg
            pg_max[g.bus] = pg_max.get(g.bus, 0.0) + g.pg_max
        buses = tuple(
            Bus(
                id=_bus_id(b["id"]),
                d0=float(b["pd_mw"]),
                d_max=float(b.get("pd_max_mw", b["pd_mw"])),
                g0=pg.get(_bus_id(b["id"]), 0.0),
                g_max=pg_max.get(_bus_id(b["id"]), 0.0),
            )
            for b in sorted(doc["buses"], key=lambda b: _bus_id(b["id"]))
        )
        branches = _canonical_branches([
            (_bus_id(b["from"]), _bus_id(b["to"]), float(b["x_pu"]))
            for b in doc["branches"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CaseError(f"malformed case document: {exc}") from exc
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
    except ValueError as exc:
        raise CaseError(f"malformed baseMVA or dynamics document: {exc}") from exc
    if not dyn:
        raise CaseError("MATPOWER import requires a dynamics document")

    slack = None
    for row in tables["bus"]:
        if int(row[1]) == 3:
            slack = int(row[0])
    if slack is None:
        raise CaseError("MATPOWER case has no slack (type 3) bus")

    try:
        doc = {
            "base_mva": base_mva,
            "base_freq_hz": float(dyn.get("base_freq_hz", 60.0)),
            "slack_bus": slack,
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
    net = _from_native(doc)
    if static_pg:
        buses = tuple(
            Bus(b.id, b.d0, b.d_max,
                b.g0 + static_pg.get(b.id, 0.0),
                b.g_max + static_pg.get(b.id, 0.0))
            for b in net.buses
        )
        net = _validate(PowerNetwork(
            buses, net.branches, net.gens, net.base_mva, net.base_freq,
            net.slack_bus))
    return net


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
        return _from_native(doc)
    if "mpc." in case_text:
        return _parse_matpower(case_text, dyn_text or "")
    raise CaseError("unrecognized case format")


def serialize_case(net: PowerNetwork) -> str:
    """Emit a native JSON document; parse(serialize(net)) round-trips."""
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
    return json.dumps(doc, indent=1, sort_keys=True)


def incidence_matrix(net: PowerNetwork, S=None) -> np.ndarray:
    """Signed bus-by-line incidence matrix for the edge subset S.

    The column of edge (i, j) with i < j carries +1 at bus i and -1 at
    bus j.  Columns follow the canonical edge order.  S is an iterable of
    canonical edge indices; None selects every edge.  No run calls it.
    """
    idx = list(range(net.l)) if S is None else sorted(S)
    A = np.zeros((net.m, len(idx)))
    for col, k in enumerate(idx):
        if k < 0 or k >= net.l:
            raise CaseError(f"edge index {k} outside the edge set")
        br = net.branches[k]
        A[net.bus_pos[br.i], col] = 1.0
        A[net.bus_pos[br.j], col] = -1.0
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
    for br in net.branches:
        a, b = net.bus_pos[br.i], net.bus_pos[br.j]
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

    flows = np.array(
        [
            (theta[net.bus_pos[br.i]] - theta[net.bus_pos[br.j]]) / br.x
            * net.base_mva
            for br in net.branches
        ]
    )
    return OperatingPoint(
        angles=np.array(theta), flows=flows, injections=d0 - g0,
        g0_balanced=g0,
    )
