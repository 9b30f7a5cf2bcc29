"""Record-based parser and dict-of-dicts eliminations: the references.

The library parses a case into numpy columns and sums the Kron
reduction's generator-generator weights with one ``np.add.at``.  These
are the per-record parser (one ``Bus``, ``Branch`` and ``Gen`` object per
element, checked one element at a time) and the eliminations that hold
every bus, generators included, as a dict row, then the dense grounded
solve of the kept buses' angles.  The parser tests require the same
error, or equal networks column by column; the elimination tests require
bitwise-equal floats.  Every float sum is written out left
to right, as in the library, so neither depends on the Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gridisland.netcase import CaseError, OperatingPoint, component_labels

from casekit import bus_pos


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
class RecordNetwork:
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

    @cached_property
    def bus_pos(self) -> dict[int, int]:
        return {b.id: k for k, b in enumerate(self.buses)}

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        pos = self.bus_pos
        return (np.array([pos[br.i] for br in self.branches], dtype=np.intp),
                np.array([pos[br.j] for br in self.branches], dtype=np.intp))

    @cached_property
    def gen_pos(self) -> np.ndarray:
        return np.array([self.bus_pos[g.bus] for g in self.gens], dtype=np.intp)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _validate(net: RecordNetwork) -> RecordNetwork:
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
    if component_labels(net, range(net.l)).any():
        raise CaseError("network graph is not connected")
    return net


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


def from_native_reference(doc: dict, static_pg: dict | None = None) -> RecordNetwork:
    """The record network of a native document (the library's
    ``_from_native`` signature)."""
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
        RecordNetwork(buses, branches, gens, base_mva, base_freq, slack)
    )


def record_columns(ref: RecordNetwork) -> dict:
    """The columns of a PowerNetwork, read off the records."""
    def column(records, name, dtype=float):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    return {
        "bus_ids": column(ref.buses, "id", np.int64),
        "d0": column(ref.buses, "d0"), "d_max": column(ref.buses, "d_max"),
        "g0": column(ref.buses, "g0"), "g_max": column(ref.buses, "g_max"),
        "line_i": column(ref.branches, "i", np.int64),
        "line_j": column(ref.branches, "j", np.int64),
        "x": column(ref.branches, "x"),
        "gen_bus": column(ref.gens, "bus", np.int64),
        "pg": column(ref.gens, "pg"), "pg_max": column(ref.gens, "pg_max"),
        "inertia": column(ref.gens, "inertia"),
        "xd_prime": column(ref.gens, "xd_prime"), "v": column(ref.gens, "v"),
        "ends": np.array(ref.ends), "gen_pos": ref.gen_pos,
    }


def assert_same_network(net, ref: RecordNetwork) -> None:
    """Every column bitwise the records' (signed zeros included), and the
    scalars equal with their Python types."""
    for name, want in record_columns(ref).items():
        column = getattr(net, name)
        for part in column if name == "ends" else [column]:
            assert not part.flags.writeable, name
        got = np.array(column)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in ("base_mva", "base_freq", "slack_bus"):
        got, want = getattr(net, name), getattr(ref, name)
        assert type(got) is type(want) and got == want, name


def star_mesh_reference(net, keep, p=None):
    """The elimination with every bus, kept ones too, as a dict row."""
    import heapq

    adj: list[dict[int, float]] = [{} for _ in range(net.m)]
    for a, b, x in zip(*(e.tolist() for e in net.ends), net.x.tolist()):
        y = adj[a].get(b, 0.0) + 1.0 / x
        adj[a][b] = adj[b][a] = y
    kept = set(keep)
    heap = [(len(adj[k]), k) for k in range(net.m) if k not in kept]
    heapq.heapify(heap)
    pivots = []
    while heap:
        deg, k = heapq.heappop(heap)
        star = adj[k]
        if deg != len(star):
            continue
        Y = 0.0
        for y in star.values():
            Y += y
        if not 0.0 < Y < math.inf:
            raise CaseError(f"singular or non-finite susceptance pivot at bus "
                            f"{int(net.bus_ids[k])}")
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


def kept_buses_reference(net) -> list[int]:
    """The distinct generator buses in generator order, then the slack
    if no generator sits there."""
    keep = []
    for k in net.gen_pos.tolist():
        if k not in keep:
            keep.append(k)
    slack = bus_pos(net)[net.slack_bus]
    return keep if slack in keep else keep + [slack]


def prelude_reference(net) -> tuple[OperatingPoint, np.ndarray, list]:
    """The DC operating point, the couplings Y between the distinct
    generator buses and the pivots of the one dict elimination.

    Y is read off the kept buses' dict rows.  The kept angles solve the
    grounded Laplacian diag(Y 1) - Y with the slack's row and column
    swapped with the last ones and then dropped; the other angles follow
    by back substitution.  A slack without a generator is then
    eliminated from Y.
    """
    keep = kept_buses_reference(net)
    slack = bus_pos(net)[net.slack_bus]
    g0 = net.g0.copy()
    d0 = net.d0
    g0[slack] += d0.sum() - g0.sum()
    p_inj = ((g0 - d0) / net.base_mva).tolist()
    adj, pivots = star_mesh_reference(net, keep, p_inj)
    col = {p: a for a, p in enumerate(keep)}
    Y = np.zeros((len(keep), len(keep)))
    for a, p in enumerate(keep):
        for q, y in adj[p].items():
            Y[a, col[q]] = y

    L = -Y
    np.fill_diagonal(L, Y.sum(axis=1))
    error = CaseError("singular or non-finite reduced susceptance network")
    if not np.isfinite(L).all():
        raise error
    order = list(range(len(keep)))
    s = col[slack]
    order[s], order[-1] = order[-1], order[s]
    L = L[np.ix_(order, order)]
    try:
        solved = np.linalg.solve(L[:-1, :-1], np.array(p_inj)[keep][order][:-1])
    except np.linalg.LinAlgError as exc:
        raise error from exc
    if np.isnan(solved).any():
        raise error
    theta = [0.0] * net.m
    for a, t in zip(order, solved.tolist()):
        theta[keep[a]] = t
    for k, Y_k, star in reversed(pivots):
        total = 0.0
        for j, y in star.items():
            total += y * theta[j]
        theta[k] = (p_inj[k] + total) / Y_k
    theta = np.array(theta)
    ei, ej = net.ends
    flows = (theta[ei] - theta[ej]) / net.x * net.base_mva
    op = OperatingPoint(angles=theta, flows=flows, injections=d0 - g0)
    if slack not in net.gen_pos.tolist():
        n = len(keep) - 1
        y = Y[n, :n]
        Y = np.multiply.outer(y, y) / Y[n].sum() + Y[:n, :n]
        np.fill_diagonal(Y, 0.0)
    return op, Y, pivots
