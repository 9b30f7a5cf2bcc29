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

PowerNetwork holds the network as read-only numpy columns: per bus in
id order, per line in canonical order (by smaller end id, then larger end
id, then file order) and per generator in file order.  A bus id maps to
its position by a search of the sorted ``bus_ids``.  The network also
owns the graph layout every stage reads: the bus positions of each
line's two ends (``ends``) and of each generator (``gen_pos``).
``component_labels`` labels the components of any line set, and
``forest_walk`` roots a forest at given buses.  The network compares
column by column; the records the stages pass on, which hold arrays,
compare and hash by identity.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

import numpy as np


class CaseError(Exception):
    """Malformed or inconsistent case input."""


@dataclass(frozen=True, eq=False)
class PowerNetwork:
    bus_ids: np.ndarray    # per bus, ascending
    d0: np.ndarray         # MW demand at the operating point
    d_max: np.ndarray      # MW maximum desired load
    g0: np.ndarray         # MW dispatched generation, summed over the bus's units
    g_max: np.ndarray
    line_i: np.ndarray     # per line, canonical order: the smaller end's bus id
    line_j: np.ndarray     # the larger end's bus id
    x: np.ndarray          # series reactance, p.u.
    gen_bus: np.ndarray    # per generator, file order: its bus id
    pg: np.ndarray         # MW
    pg_max: np.ndarray     # MW
    inertia: np.ndarray    # seconds on system base
    xd_prime: np.ndarray   # p.u.
    v: np.ndarray          # p.u. voltage behind transient reactance
    base_mva: float
    base_freq: float       # rad/s
    slack_bus: int
    ends: tuple[np.ndarray, np.ndarray]   # bus positions of each line's ends
    gen_pos: np.ndarray    # bus position of each generator

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerNetwork):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def m(self) -> int:
        return len(self.bus_ids)

    @property
    def l(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return len(self.gen_bus)


def _frozen(column: np.ndarray) -> np.ndarray:
    """Read-only: the columns and the layout are shared by every stage."""
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class OperatingPoint:
    angles: np.ndarray       # radians per bus
    flows: np.ndarray        # MW per branch, positive from smaller to larger id
    injections: np.ndarray   # b0 = d0 - g0 (MW), balanced at the slack


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _raise_first(rows, name) -> None:
    """The one first-fault rule for a record kind.

    rows is an ordered list of (mask, message) over the kind's elements;
    raise CaseError with the message of the first element that fails any
    row, taking that element's first failing row, its "{}" filled by
    name(k).  The order of the rows is the precedence of the checks.
    """
    failing = np.logical_or.reduce([mask for mask, _ in rows])
    if failing.any():
        k = int(failing.argmax())
        text = next(text for mask, text in rows if mask[k])
        raise CaseError(text.format(name(k)))


def _validate(net: PowerNetwork, line_known: np.ndarray) -> PowerNetwork:
    """Each check in order: the scalars, then per bus, per line and per
    generator the first element that fails any of its checks, then the
    slack and connectivity.  The order of the checks is stated once, by
    the rows handed to `_raise_first`.  line_known marks the lines whose
    two ends are known buses."""
    if not (_finite(net.base_mva, net.base_freq)
            and net.base_mva > 0 and net.base_freq > 0):
        raise CaseError("base MVA and base frequency must be finite and positive")
    ids = net.bus_ids
    duplicate = np.zeros(net.m, dtype=bool)
    duplicate[1:] = ids[1:] == ids[:-1]
    loads = (net.d0, net.d_max, net.g0, net.g_max)
    _raise_first([
        (duplicate, "duplicate bus id {}"),
        (~np.logical_and.reduce([np.isfinite(c) for c in loads]),
         "non-finite load/generation at bus {}"),
        (np.logical_or.reduce([c < 0 for c in loads]),
         "negative load/generation limit at bus {}"),
    ], lambda k: int(ids[k]))
    _raise_first([
        (~line_known, "branch {} references unknown bus"),
        (~np.isfinite(net.x), "branch {} has non-finite reactance"),
        (net.x <= 0, "branch {} has nonpositive reactance"),
        (net.line_i == net.line_j, "branch {} is a self-loop"),
    ], lambda k: f"{int(net.line_i[k])}-{int(net.line_j[k])}")
    machines = (net.pg, net.pg_max, net.inertia, net.xd_prime, net.v)
    _raise_first([
        (~np.logical_and.reduce([np.isfinite(c) for c in machines]),
         "generator at bus {} has a non-finite field"),
        (net.xd_prime <= 0, "generator at bus {} has nonpositive xd'"),
        ((net.inertia <= 0) | (net.v <= 0),
         "generator at bus {} has nonpositive inertia or voltage"),
    ], lambda k: int(net.gen_bus[k]))
    _slack_pos(net)
    # the slack bus exists, so m >= 1 and a connected graph labels all 0
    if component_labels(net, range(net.l)).any():
        raise CaseError("network graph is not connected")
    return net


def component_labels(net: PowerNetwork, S) -> np.ndarray:
    """Bus position -> smallest bus position in its component of (V, S).

    Each round hooks, for every line of S whose ends have different
    roots, the larger root onto the smaller (`np.minimum.at` keeps the
    smallest), then jumps pointers until every bus points at its root.
    A parent is never larger than its bus, so a root is the smallest
    position of its tree; the rounds end when no line joins two trees.
    """
    parent = np.arange(net.m, dtype=np.intp)
    lines = np.fromiter(S, dtype=np.intp)
    a, b = net.ends[0][lines], net.ends[1][lines]
    while True:
        ra, rb = parent[a], parent[b]
        join = ra != rb
        if not join.any():
            return parent
        ra, rb = ra[join], rb[join]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _is_index(k, n: int) -> bool:
    """Whether k is an integer in [0, n); a bool or a float is not."""
    return (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
            and 0 <= k < n)


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


_INT64 = np.iinfo(np.int64)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _bus_id(value) -> int:
    """A bus number: an integral int or float that fits in int64, never a
    bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"bus number {value!r} is not an integer")
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"bus number {value!r} does not fit in int64")
    return int(value)


def _ids(values: list) -> np.ndarray:
    """Bus numbers as int64; plain ints at once, anything else by `_bus_id`."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(map(_bus_id, values), np.int64, len(values))


def _floats(values: list) -> np.ndarray:
    return np.fromiter(map(float, values), float, len(values))


def _columns(rows, spec) -> list[np.ndarray]:
    """One column per (get, convert) field of spec, over every row.

    A column at a time; if anything fails, again row by row, fields in
    order, so the error raised is the first one in document order.
    """
    try:
        return [convert(list(map(get, rows))) for get, convert in spec]
    except _MALFORMED:
        for row in rows:
            for get, convert in spec:
                convert([get(row)])
        raise


def _lookup(bus_ids: np.ndarray, numbers: np.ndarray):
    """Position of each bus number in the sorted bus_ids, and whether the
    number is there."""
    pos = np.searchsorted(bus_ids, numbers)
    if not len(bus_ids):
        return pos, np.zeros(len(numbers), dtype=bool)
    np.minimum(pos, len(bus_ids) - 1, out=pos)
    return pos, bus_ids[pos] == numbers


def _slack_pos(net: PowerNetwork) -> int:
    """Bus position of the slack bus; CaseError if it is not a bus."""
    (pos,), (known,) = _lookup(net.bus_ids, np.array([net.slack_bus]))
    if not known:
        raise CaseError(f"slack bus {net.slack_bus} is not a known bus")
    return int(pos)


_GEN_FIELDS = (
    (itemgetter("bus"), _ids),
    (itemgetter("pg_mw"), _floats),
    (lambda g: g.get("pg_max_mw", g["pg_mw"]), _floats),
    (itemgetter("inertia_s"), _floats),
    (itemgetter("xd_prime_pu"), _floats),
    (lambda g: g.get("vm_pu", 1.0), _floats),
)
_LOAD_FIELDS = (
    (itemgetter("pd_mw"), _floats),
    (lambda b: b.get("pd_max_mw", b["pd_mw"]), _floats),
)
_LINE_FIELDS = (
    (itemgetter("from"), _ids), (itemgetter("to"), _ids),
    (itemgetter("x_pu"), _floats),
)


def _from_native(doc: dict, static_pg: dict | None = None) -> PowerNetwork:
    """The network of a native document; static_pg (bus id -> MW of units
    without dynamic data) adds to g0 and g_max after the generators.

    Fields convert in one fixed order, so a document with several faults
    reports the first: generators row by row, bus ids in file order,
    loads in bus id order, then lines row by row.
    """
    try:
        base_mva = float(doc["base_mva"])
        base_freq = 2 * np.pi * float(doc.get("base_freq_hz", 60.0))
        slack = _bus_id(doc["slack_bus"])
        gen_bus, pg, pg_max, inertia, xd_prime, v = _columns(
            doc["gens"], _GEN_FIELDS)
        buses = doc["buses"]
        (ids,) = _columns(buses, ((itemgetter("id"), _ids),))
        order = np.argsort(ids, kind="stable")
        rows = list(buses)
        d0, d_max = _columns([rows[k] for k in order.tolist()], _LOAD_FIELDS)
        line_from, line_to, x = _columns(doc["branches"], _LINE_FIELDS)
    except _MALFORMED as exc:
        raise CaseError(f"malformed case document: {exc}") from exc
    bus_ids = ids[order]
    gen_pos, known = _lookup(bus_ids, gen_bus)
    unknown = set(gen_bus[~known].tolist())
    if static_pg:
        unknown |= static_pg.keys() - set(bus_ids.tolist())
    if unknown:
        raise CaseError(f"generator at unknown bus {min(unknown)}")
    # summed per bus in generator order, then the static units: a bus's
    # twin, if any, is a duplicate that the validation rejects
    g0, g_max = np.zeros(len(bus_ids)), np.zeros(len(bus_ids))
    np.add.at(g0, gen_pos, pg)
    np.add.at(g_max, gen_pos, pg_max)
    for bus, mw in (static_pg or {}).items():
        k = int(np.searchsorted(bus_ids, bus))
        g0[k] += mw
        g_max[k] += mw
    lo, hi = np.minimum(line_from, line_to), np.maximum(line_from, line_to)
    canonical = np.lexsort((np.arange(len(x)), hi, lo))
    line_i, line_j = lo[canonical], hi[canonical]
    ei, known_i = _lookup(bus_ids, line_i)
    ej, known_j = _lookup(bus_ids, line_j)
    columns = dict(
        bus_ids=bus_ids, d0=d0, d_max=d_max, g0=g0, g_max=g_max,
        line_i=line_i, line_j=line_j, x=x[canonical], gen_bus=gen_bus, pg=pg,
        pg_max=pg_max, inertia=inertia, xd_prime=xd_prime, v=v, gen_pos=gen_pos)
    net = PowerNetwork(
        **{name: _frozen(c) for name, c in columns.items()},
        base_mva=base_mva, base_freq=base_freq, slack_bus=slack,
        ends=(_frozen(ei), _frozen(ej)))
    return _validate(net, known_i & known_j)


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
    def rows(keys, *columns):
        return [dict(zip(keys, values))
                for values in zip(*(c.tolist() for c in columns))]

    doc = {
        "base_mva": net.base_mva,
        "base_freq_hz": net.base_freq / (2 * np.pi),
        "slack_bus": net.slack_bus,
        "buses": rows(("id", "pd_mw", "pd_max_mw"), net.bus_ids, net.d0, net.d_max),
        "branches": rows(("from", "to", "x_pu"), net.line_i, net.line_j, net.x),
        "gens": rows(("bus", "pg_mw", "pg_max_mw", "inertia_s", "xd_prime_pu",
                      "vm_pu"), net.gen_bus, net.pg, net.pg_max, net.inertia,
                     net.xd_prime, net.v),
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


def _star_mesh(net: PowerNetwork, keep, p):
    """Eliminate every bus position outside keep by star-mesh transforms.

    The network is the Laplacian of the line weights 1/x.  Eliminating
    bus k with neighbour weights y_kj and pivot Y_k = sum_j y_kj adds
    y_ki y_kj / Y_k to the weight of every neighbour pair (i, j): one step
    of Gaussian elimination, so the graph that remains is the Schur
    complement onto the kept buses.  Buses go in minimum-degree order,
    ties to the lowest position.  Each neighbour i also gains
    y_ki p_k / Y_k in p (a per-bus list, updated in place), the
    right-hand side of the same elimination.

    Only the free buses hold a row, {neighbour: weight} with kept
    neighbours included, in first-touch order; a weight between a free
    and a kept bus is kept in the free row alone.  No step reads a weight
    between two kept buses, so those are returned as their updates
    instead: one list of stars, each a flat list of one triple
    a, frac, y per kept bus (a its index in keep), whose pair s < t adds
    frac_s * y_t to the weight between a_s and a_t.  Each line between
    two kept buses comes first, in canonical order, as the star
    [a, 1.0, y, b, 1.0, y]; then each eliminated bus with two or more
    kept neighbours, with a, y_ka / Y_k, y_ka per neighbour in star
    order.  Summed in list order, they give every kept weight bitwise.
    Flat lists, not a tuple per kept bus: on tied x24 those tuples were
    some 4,500 objects alive until the sum, and the garbage collector
    passes they caused made `refsel` slower.  Also returns the pivots
    (k, Y_k, {j: y_kj}) in elimination order.  A pivot that is not
    finite and positive raises CaseError.

    The heap holds one live entry per free bus, keyed by its degree: a
    bus gets a new entry only when its degree changes, and an entry whose
    degree no longer matches is stale.  Stars of two neighbours i, j and
    of three i, j, h (in star order; the commonest) are eliminated in
    closed form, with the same float operations in the same order as the
    general loop: the pivot summed left to right, the pairs (i, j), (i, h),
    (j, h) in turn, each filled with the earlier neighbour's fraction
    times the later one's weight, new row entries in that order and kept
    neighbours in star order.  Every sum is written out left to right,
    so no bit depends on the builtin `sum`, which compensates from
    Python 3.12 on.
    """
    m = net.m
    slot = [-1] * m   # index in keep; -1 marks a free bus
    for a, k in enumerate(keep):
        slot[k] = a
    adj: list[dict | None] = [{} if a < 0 else None for a in slot]
    stars = []
    with np.errstate(over="ignore"):   # a tiny x gives an infinite pivot below
        weights = (1.0 / net.x).tolist()
    for a, b, y in zip(*(x.tolist() for x in net.ends), weights):
        row_a, row_b = adj[a], adj[b]
        if row_a is not None:
            row_a[b] = w = row_a.get(b, 0.0) + y
            if row_b is not None:
                row_b[a] = w
        elif row_b is not None:
            row_b[a] = row_b.get(a, 0.0) + y
        else:
            stars.append([slot[a], 1.0, y, slot[b], 1.0, y])
    # the degree of each free bus's live heap entry; -1 for kept and
    # eliminated buses, which have none
    degree = [-1 if row is None else len(row) for row in adj]
    # keys deg * m + k order as (deg, k)
    heap = [d * m + k for k, d in enumerate(degree) if d >= 0]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    pivots = []
    while heap:
        deg, k = divmod(pop(heap), m)
        if deg != degree[k]:   # stale entry
            continue
        degree[k] = -1
        star = adj[k]
        if deg == 2:
            (i, y_ki), (j, y_kj) = star.items()
            Y = y_ki + y_kj
        elif deg == 3:
            (i, y_ki), (j, y_kj), (h, y_kh) = star.items()
            Y = y_ki + y_kj + y_kh
        else:
            Y = 0.0
            for y in star.values():
                Y += y
        if not 0.0 < Y < math.inf:
            raise CaseError(f"singular or non-finite susceptance pivot at "
                            f"bus {int(net.bus_ids[k])}")
        if deg == 2:
            frac = y_ki / Y
            p[i] += frac * p[k]
            p[j] += y_kj / Y * p[k]
            row_i, row_j = adj[i], adj[j]
            if row_i is not None:
                del row_i[k]
                row_i[j] = w = row_i.get(j, 0.0) + frac * y_kj
                if len(row_i) != degree[i]:
                    degree[i] = len(row_i)
                    push(heap, len(row_i) * m + i)
                if row_j is not None:
                    row_j[i] = w
            elif row_j is not None:
                row_j[i] = row_j.get(i, 0.0) + frac * y_kj
            else:
                stars.append([slot[i], frac, y_ki, slot[j], y_kj / Y, y_kj])
            if row_j is not None:
                del row_j[k]
                if len(row_j) != degree[j]:
                    degree[j] = len(row_j)
                    push(heap, len(row_j) * m + j)
        elif deg == 3:
            frac_i, frac_j, frac_h = y_ki / Y, y_kj / Y, y_kh / Y
            p[i] += frac_i * p[k]
            p[j] += frac_j * p[k]
            p[h] += frac_h * p[k]
            row_i, row_j, row_h = adj[i], adj[j], adj[h]
            kept = []
            if row_i is not None:
                del row_i[k]
                row_i[j] = w = row_i.get(j, 0.0) + frac_i * y_kj
                if row_j is not None:
                    row_j[i] = w
                row_i[h] = w = row_i.get(h, 0.0) + frac_i * y_kh
                if row_h is not None:
                    row_h[i] = w
                if len(row_i) != degree[i]:
                    degree[i] = len(row_i)
                    push(heap, len(row_i) * m + i)
            else:
                kept += slot[i], frac_i, y_ki
                if row_j is not None:
                    row_j[i] = row_j.get(i, 0.0) + frac_i * y_kj
                if row_h is not None:
                    row_h[i] = row_h.get(i, 0.0) + frac_i * y_kh
            if row_j is not None:
                del row_j[k]
                row_j[h] = w = row_j.get(h, 0.0) + frac_j * y_kh
                if row_h is not None:
                    row_h[j] = w
                if len(row_j) != degree[j]:
                    degree[j] = len(row_j)
                    push(heap, len(row_j) * m + j)
            else:
                kept += slot[j], frac_j, y_kj
                if row_h is not None:
                    row_h[j] = row_h.get(j, 0.0) + frac_j * y_kh
            if row_h is not None:
                del row_h[k]
                if len(row_h) != degree[h]:
                    degree[h] = len(row_h)
                    push(heap, len(row_h) * m + h)
            else:
                kept += slot[h], frac_h, y_kh
            if len(kept) > 3:   # two or more kept neighbours
                stars.append(kept)
        else:
            nbrs = [(i, y_ki, adj[i]) for i, y_ki in star.items()]
            free = [t for t in nbrs if t[2] is not None]
            kept = []
            f = 0   # free[f:] are the free neighbours after the current one
            for s, (i, y_ki, row) in enumerate(nbrs):
                frac = y_ki / Y
                p[i] += frac * p[k]
                if row is None:
                    kept += slot[i], frac, y_ki
                    for _, y_kj, row_j in free[f:]:
                        row_j[i] = row_j.get(i, 0.0) + frac * y_kj
                else:
                    f += 1
                    del row[k]
                    get = row.get
                    for j, y_kj, row_j in nbrs[s + 1:]:
                        row[j] = w = get(j, 0.0) + frac * y_kj
                        if row_j is not None:
                            row_j[i] = w
            for i, _, row in free:
                if len(row) != degree[i]:
                    degree[i] = len(row)
                    push(heap, len(row) * m + i)
            if len(kept) > 3:   # two or more kept neighbours
                stars.append(kept)
        pivots.append((k, Y, star))
    return pivots, stars


def _couplings(stars, n: int) -> np.ndarray:
    """The n x n couplings between the kept buses of `_star_mesh`: each
    star's pairs s < t update the cell of a_s and a_t by frac_s * y_t,
    every cell is summed in star order, and the touched cells are
    mirrored, so the matrix is exactly symmetric with a zero diagonal."""
    sizes = np.array([len(kept) // 3 for kept in stars], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(stars), float).reshape(-1, 3)
    a, frac, y = flat[:, 0].astype(np.intp), flat[:, 1], flat[:, 2]
    # per neighbour, the count of neighbours after it in its star
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(a)) - 1
    s = np.repeat(np.arange(len(a)), later)
    t = s + 1 + np.arange(len(s)) - np.repeat(np.cumsum(later) - later, later)
    cell = np.minimum(a[s], a[t]) * n + np.maximum(a[s], a[t])
    Y = np.zeros((n, n))
    flat = Y.reshape(-1)
    np.add.at(flat, cell, frac[s] * y[t])
    # mirror only the touched cells; a whole-matrix Y + Y.T would
    # allocate a second n x n array
    flat[cell % n * n + cell // n] = flat[cell]
    return Y


def _grounded_angles(Y: np.ndarray, p, s: int) -> list[float]:
    """The kept buses' angles: the solve of (diag(Y 1) - Y) theta = p
    with theta_s = 0, by one dense solve of the other unknowns.

    One symmetric swap of rows and columns s and -1 puts the slack last,
    so the grounded Laplacian is the leading block, and it is built in
    Y's own buffer; Y is restored bitwise before the return.  So the
    unknowns are solved in kept order, except that the last kept bus
    takes the slack's place.  A system that is not finite, is singular
    or gives a NaN angle raises CaseError.
    """
    error = CaseError("singular or non-finite reduced susceptance network")
    degree = Y.sum(axis=1)
    # every coupling is >= 0 and at most its row's sum, so finite row
    # sums make the whole system finite
    if not np.isfinite(degree).all():
        raise error
    swap, back = [s, -1], [-1, s]
    p = np.array(p)
    for v in (p, degree):
        v[swap] = v[back]
    Y[swap] = Y[back]
    Y[:, swap] = Y[:, back]
    np.negative(Y, out=Y)
    np.fill_diagonal(Y, degree)
    try:
        theta = np.linalg.solve(Y[:-1, :-1], p[:-1])
    except np.linalg.LinAlgError as exc:
        raise error from exc
    finally:
        np.negative(Y, out=Y)
        np.fill_diagonal(Y, 0.0)
        Y[swap] = Y[back]
        Y[:, swap] = Y[:, back]
    if np.isnan(theta).any():
        raise error
    theta = np.append(theta, 0.0)
    theta[swap] = theta[back]
    return theta.tolist()


def _reduce(net: PowerNetwork) -> tuple[OperatingPoint, np.ndarray]:
    """The DC operating point and the couplings between the distinct
    generator buses, from one elimination.

    `_star_mesh` keeps the distinct generator buses in generator order,
    and the slack last if no generator sits there, and eliminates every
    other bus, carrying the injections along; `_couplings` sums its one
    list of kept-pair stars, kept lines first, into the reduced network
    Y between the kept buses.  The kept angles solve its
    grounded Laplacian (`_grounded_angles`).  The eliminated buses'
    angles follow by back substitution in reverse elimination order,
    each pivot row's terms summed left to right from 0.0 in the row's
    order, so the angles do not depend on the Python version.  A slack
    without a generator is then eliminated from Y, each pair of
    generator buses a, b gaining y_sa y_sb / sum_c y_sc.  Any
    load-generation mismatch in the case dispatch is absorbed by the
    slack bus before solving, so the returned injections sum to zero.
    """
    keep = list(dict.fromkeys(net.gen_pos.tolist()))
    n = len(keep)   # the distinct generator buses
    slack = _slack_pos(net)
    if slack not in keep:
        keep.append(slack)
    g0 = net.g0.copy()
    d0 = net.d0
    g0[slack] += d0.sum() - g0.sum()

    p_inj = ((g0 - d0) / net.base_mva).tolist()
    pivots, stars = _star_mesh(net, keep, p_inj)
    Y = _couplings(stars, len(keep))
    del stars
    theta = [0.0] * net.m
    kept = _grounded_angles(Y, [p_inj[k] for k in keep], keep.index(slack))
    for k, t in zip(keep, kept):
        theta[k] = t
    for k, Y_k, star in reversed(pivots):
        total = 0.0
        for j, y in star.items():
            total += y * theta[j]
        theta[k] = (p_inj[k] + total) / Y_k
    del pivots

    theta = np.array(theta)
    ei, ej = net.ends
    flows = (theta[ei] - theta[ej]) / net.x * net.base_mva
    op = OperatingPoint(angles=theta, flows=flows, injections=d0 - g0)
    if len(keep) > n:
        y = Y[n, :n]
        Y = np.multiply.outer(y, y) / Y[n].sum() + Y[:n, :n]
        np.fill_diagonal(Y, 0.0)
    return op, Y


def dc_power_flow(net: PowerNetwork) -> OperatingPoint:
    """Solve B'theta = P with the slack angle fixed at zero, by the one
    elimination `_reduce` shares with the Kron reduction."""
    return _reduce(net)[0]
