import gc
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridisland import netcase
from gridisland.netcase import (
    CaseError,
    component_labels,
    dc_power_flow,
    incidence_matrix,
    parse_case,
    serialize_case,
)

from casekit import (
    DATA,
    ROOT,
    bus_pos,
    line_ends,
    load_case,
    random_case_doc,
    random_network,
)
from prelude_reference import assert_same_network, from_native_reference

TINY = {
    "base_mva": 100.0,
    "base_freq_hz": 60.0,
    "slack_bus": 1,
    "buses": [
        {"id": 1, "pd_mw": 0.0},
        {"id": 2, "pd_mw": 60.0},
        {"id": 3, "pd_mw": 40.0},
    ],
    "branches": [
        {"from": 1, "to": 2, "x_pu": 0.1},
        {"from": 2, "to": 3, "x_pu": 0.2},
        {"from": 1, "to": 3, "x_pu": 0.1},
    ],
    "gens": [
        {"bus": 1, "pg_mw": 100.0, "pg_max_mw": 150.0,
         "inertia_s": 10.0, "xd_prime_pu": 0.1, "vm_pu": 1.0},
    ],
}


def test_parse_native_counts():
    net = parse_case(json.dumps(TINY))
    assert (net.m, net.l, net.n) == (3, 3, 1)
    assert net.d0[1] == 60.0
    assert net.inertia[0] == 10.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip(seed):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 6))
    for doc in (TINY, random_case_doc(rng, m=int(rng.integers(n_gens, 20)),
                                      extra_edges=int(rng.integers(0, 8)),
                                      n_gens=n_gens)):
        net = parse_case(json.dumps(doc))
        assert parse_case(serialize_case(net)) == net


@pytest.mark.parametrize("name", ["case39.json", "case118.json"])
def test_round_trip_bundled_cases(name):
    net = load_case(name)
    assert parse_case(serialize_case(net)) == net


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["buses"].append({"id": 1, "pd_mw": 0.0}), "duplicate bus"),
        (lambda d: d["branches"].append({"from": 1, "to": 9, "x_pu": 0.1}),
         "unknown bus"),
        (lambda d: d["branches"][0].update(x_pu=-0.1), "nonpositive reactance"),
        (lambda d: d["branches"].clear(), "not connected"),
        # two halves, each with its own lines
        (lambda d: (d["buses"].extend([{"id": 4, "pd_mw": 5.0},
                                       {"id": 5, "pd_mw": 5.0}]),
                    d["branches"].append({"from": 4, "to": 5, "x_pu": 0.1})),
         "graph is not connected"),
        (lambda d: d["gens"][0].update(inertia_s=0.0), "nonpositive inertia"),
        (lambda d: d["gens"][0].update(vm_pu=0.0), "inertia or voltage"),
        (lambda d: d.update(base_mva=0.0), "finite and positive"),
    ],
)
def test_validation_errors(mutate, fragment):
    doc = json.loads(json.dumps(TINY))
    mutate(doc)
    with pytest.raises(CaseError, match=fragment):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d["branches"][1].update(x_pu=float("nan")),
    lambda d: d["buses"][2].update(pd_max_mw=float("nan")),
    lambda d: d["gens"][0].update(vm_pu=float("nan")),
])
def test_nan_field_rejected(mutate):
    doc = json.loads(json.dumps(TINY))
    mutate(doc)
    with pytest.raises(CaseError, match="non-finite"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d["gens"][0].update(inertia_s=float("inf")),
    lambda d: d["buses"][1].update(pd_mw=float("-inf")),
    lambda d: d.update(base_mva=float("inf")),
    lambda d: d["buses"][1].update(id=float("inf")),
])
def test_infinite_field_rejected(mutate):
    doc = json.loads(json.dumps(TINY))
    mutate(doc)
    with pytest.raises(CaseError):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("old, new", [(" 2 1 60", " 2 1 nan"),
                                      (" 0.2 0.0", " inf 0.0"),
                                      (" 2 1 60", " 2 1 x")])
def test_matpower_rejects_non_finite_or_non_numeric(old, new):
    with pytest.raises(CaseError, match="mpc"):
        parse_case(MPC.replace(old, new), DYN)


@pytest.mark.parametrize("row", [" 2 1 60  0 0 0 1 1 0 345 1 1.1 0.9;",
                                 " 1 100 0 300 -300 1.0 100 1 150 0;",
                                 " 2 3 0.0 0.2 0.0 0 0 0 0 0 1 -360 360;"])
def test_matpower_short_row_is_a_case_error(row):
    with pytest.raises(CaseError, match="fewer than"):
        parse_case(MPC.replace(row, row.split()[0] + ";"), DYN)


@pytest.mark.parametrize("machine", [{"xd_prime_pu": 0.1}, {"inertia_s": 10.0},
                                     5, [10.0, 0.1]])
def test_matpower_incomplete_machine_is_a_case_error(machine):
    with pytest.raises(CaseError, match="dynamics"):
        parse_case(MPC, json.dumps({"machines": {"1": machine}}))


def test_nan_reactance_is_a_json_error(tmp_path, capsys):
    from gridisland.cli import main

    with open(os.path.join(DATA, "case39.json")) as fh:
        doc = json.load(fh)
    doc["branches"][0]["x_pu"] = float("nan")
    path = tmp_path / "case39_nan.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--case", str(path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "CaseError"


@pytest.mark.parametrize("kind, old, new", [
    ("native", '"id": 1,', '"id": 1.5,'),
    ("native", '"bus": 39,', '"bus": 39.9,'),
    ("native", '"slack_bus": 31', '"slack_bus": true'),
    ("native", '"from": 1,', '"from": "1",'),
    ("matpower", " 2 1 60", " 2.5 1 60"),
    ("matpower", " 1 100 0 300", " 1.5 100 0 300"),
    ("matpower", " 2 3 0.0 0.2", " 2 3.2 0.0 0.2"),
], ids=["bus-id", "gen-bus", "slack-bool", "line-end-string", "mpc-bus",
        "mpc-gen", "mpc-line-end"])
def test_non_integral_bus_numbers_are_json_errors(kind, old, new, tmp_path,
                                                   capsys):
    from gridisland.cli import main

    case, dyn = tmp_path / "case", tmp_path / "dyn.json"
    if kind == "native":
        with open(os.path.join(DATA, "case39.json")) as fh:
            text = json.dumps(json.load(fh))
        argv = ["run", "--case", str(case)]
    else:
        text = MPC
        dyn.write_text(DYN)
        argv = ["run", "--case", str(case), "--dyn", str(dyn), "--r", "1"]
    case.write_text(text)
    assert main(argv) == 0 and old in text
    capsys.readouterr()
    case.write_text(text.replace(old, new, 1))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "CaseError"
    assert "not an integer" in err["message"]


def test_integral_float_bus_numbers_parse():
    doc = json.loads(json.dumps(TINY))
    for b in doc["buses"]:
        b["id"] = float(b["id"])
    doc["branches"][0]["from"] = 1.0
    doc["gens"][0]["bus"] = 1.0
    doc["slack_bus"] = 1.0
    assert parse_case(json.dumps(doc)) == parse_case(json.dumps(TINY))


def test_syntax_error_reports_line():
    with pytest.raises(CaseError, match="line"):
        parse_case('{"base_mva": 100.0,\n "buses": [}')


def test_unrecognized_format():
    with pytest.raises(CaseError):
        parse_case("hello world")


MPC = """
function mpc = t3
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0   0 0 0 1 1 0 345 1 1.1 0.9;
 2 1 60  0 0 0 1 1 0 345 1 1.1 0.9;
 3 1 40  0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
 1 100 0 300 -300 1.0 100 1 150 0;
];
mpc.branch = [
 1 2 0.0 0.1 0.0 0 0 0 0 0 1 -360 360;
 2 3 0.0 0.2 0.0 0 0 0 0 0 1 -360 360;
 1 3 0.0 0.1 0.0 0 0 0 0 0 1 -360 360;
];
"""

DYN = json.dumps(
    {"machines": {"1": {"inertia_s": 10.0, "xd_prime_pu": 0.1, "vm_pu": 1.0}}}
)


def test_matpower_import_matches_native():
    native = parse_case(json.dumps(TINY))
    imported = parse_case(MPC, DYN)
    assert imported == native
    assert parse_case(serialize_case(imported)) == imported


def test_matpower_drops_out_of_service_generators():
    # status-0 rows: one at bus 2 with dynamics data, one at bus 3 without
    dyn = json.dumps({"machines": {
        "1": {"inertia_s": 10.0, "xd_prime_pu": 0.1, "vm_pu": 1.0},
        "2": {"inertia_s": 4.0, "xd_prime_pu": 0.2, "vm_pu": 1.0},
    }})
    gen = " 1 100 0 300 -300 1.0 100 1 150 0;\n"
    off = (gen + " 2 500 0 300 -300 1.0 100 0 600 0;\n"
           " 3 70 0 300 -300 1.0 100 0 100 0;\n")
    with_off = parse_case(MPC.replace(gen, off), dyn)
    assert with_off == parse_case(MPC, dyn) == parse_case(MPC, DYN)


# a second in-service unit, at bus 2, which DYN gives no dynamic data
GEN = " 1 100 0 300 -300 1.0 100 1 150 0;\n"
MPC_STATIC = MPC.replace(GEN, GEN + " 2 60 0 300 -300 1.0 100 1 80 0;\n")


def test_matpower_unit_without_dynamics_is_a_fixed_injection():
    plain, net = parse_case(MPC, DYN), parse_case(MPC_STATIC, DYN)
    # the generator at bus 1, and no other
    for name in ("gen_bus", "pg", "pg_max", "inertia", "xd_prime", "v"):
        assert np.array_equal(getattr(net, name), getattr(plain, name))
    # its Pg adds to the bus's generation and to its maximum
    assert list(zip(net.g0.tolist(), net.g_max.tolist())) == [
        (100.0, 150.0), (60.0, 60.0), (0.0, 0.0)]
    assert dc_power_flow(plain).injections.tolist() == [-100.0, 60.0, 40.0]
    assert dc_power_flow(net).injections.tolist() == [-40.0, 0.0, 40.0]


def test_matpower_unit_without_dynamics_at_unknown_bus_is_a_case_error():
    text = MPC.replace(GEN, GEN + " 9 60 0 300 -300 1.0 100 1 80 0;\n")
    with pytest.raises(CaseError, match="unknown bus 9"):
        parse_case(text, DYN)


def test_serialize_refuses_generation_without_dynamics():
    net = parse_case(MPC_STATIC, DYN)
    with pytest.raises(CaseError, match="cannot hold this network exactly"):
        serialize_case(net)


def test_matpower_two_slack_buses_are_a_case_error():
    text = MPC.replace(" 2 1 60 ", " 2 3 60 ")
    with pytest.raises(CaseError, match=r"one slack \(type 3\) bus, not 2: \[1, 2\]"):
        parse_case(text, DYN)


def test_matpower_requires_dynamics():
    with pytest.raises(CaseError, match="dynamics"):
        parse_case(MPC)


def test_canonical_edge_order():
    net = parse_case(json.dumps(TINY))
    assert line_ends(net) == [(1, 2), (1, 3), (2, 3)]


def test_incidence_signs():
    net = parse_case(json.dumps(TINY))
    A = incidence_matrix(net)
    assert A.shape == (3, 3)
    # edge 1-2: +1 at bus 1, -1 at bus 2
    assert A[0, 0] == 1.0 and A[1, 0] == -1.0
    np.testing.assert_allclose(A.sum(axis=0), 0.0)
    sub = incidence_matrix(net, S=[2, 0])
    np.testing.assert_allclose(sub, A[:, [0, 2]])  # sorted canonical order


def test_incidence_rejects_bad_index():
    net = parse_case(json.dumps(TINY))
    with pytest.raises(CaseError):
        incidence_matrix(net, S=[5])


@pytest.mark.parametrize("name", ["case39.json", "case118.json"])
def test_layout_and_flows_are_the_per_line_loops(name):
    # the cached layout is read-only, and the flows are bitwise the
    # per-line expression over bus_pos
    net = load_case(name)
    pos = bus_pos(net)
    ei, ej = net.ends
    assert ei.tolist() == [pos[i] for i, _ in line_ends(net)]
    assert ej.tolist() == [pos[j] for _, j in line_ends(net)]
    assert net.gen_pos.tolist() == [pos[b] for b in net.gen_bus.tolist()]
    assert not (ei.flags.writeable or ej.flags.writeable
                or net.gen_pos.flags.writeable)
    theta = dc_power_flow(net).angles.tolist()
    assert dc_power_flow(net).flows.tolist() == [
        (theta[pos[i]] - theta[pos[j]]) / x * net.base_mva
        for (i, j), x in zip(line_ends(net), net.x.tolist())]


def loop_component_labels(net, S):
    """component_labels as the pure-Python union-find it replaced, with
    path halving; the reference."""
    parent = list(range(net.m))
    ei, ej = (x.tolist() for x in net.ends)
    for e in S:
        a, b = ei[e], ej[e]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # a root is the smallest position of its tree, so in ascending order
    # parent[b]'s own parent is already its root
    for b in range(net.m):
        parent[b] = parent[parent[b]]
    return np.array(parent, dtype=np.intp)


def path_network(order):
    """A network whose lines form one path through the buses in `order`
    (0-based ids), so labels travel its whole length."""
    doc = random_case_doc(np.random.default_rng(0), m=len(order),
                          extra_edges=0, n_gens=1)
    doc["branches"] = [{"from": int(a) + 1, "to": int(b) + 1, "x_pu": 0.1}
                       for a, b in zip(order[:-1], order[1:])]
    return parse_case(json.dumps(doc))


def assert_labels_are_the_loop(net, S):
    labels = component_labels(net, S)
    assert labels.dtype == np.intp
    np.testing.assert_array_equal(labels, loop_component_labels(net, S))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 40),
       extra=st.integers(0, 12), data=st.data())
def test_component_labels_are_the_loop_union_find(seed, m, extra, data):
    net = random_network(np.random.default_rng(seed), m=m, extra_edges=extra,
                         n_gens=1)
    # any subset of lines, in any order and with repeats
    S = data.draw(st.lists(st.integers(0, max(net.l - 1, 0)),
                           max_size=3 * net.l)) if net.l else []
    assert_labels_are_the_loop(net, S)
    assert_labels_are_the_loop(net, range(net.l))
    assert_labels_are_the_loop(net, [])


@pytest.mark.parametrize("order", [
    np.arange(600),                                 # one hook, long jumps
    np.arange(600)[::-1],
    np.random.default_rng(3).permutation(600),
    np.r_[np.arange(0, 600, 2), np.arange(599, 0, -2)],   # zigzag
], ids=["ascending", "descending", "shuffled", "zigzag"])
def test_component_labels_on_a_long_path(order):
    net = path_network(order)
    assert_labels_are_the_loop(net, range(net.l))
    assert_labels_are_the_loop(net, list(range(net.l))[::-1] * 2)
    assert_labels_are_the_loop(net, range(0, net.l, 2))
    assert not component_labels(net, range(net.l)).any()


def test_component_labels_of_a_single_bus_and_of_no_lines():
    one = random_network(np.random.default_rng(0), m=1, extra_edges=0, n_gens=1)
    assert component_labels(one, []).tolist() == [0]
    net = load_case("case118.json")
    assert component_labels(net, []).tolist() == list(range(net.m))
    assert_labels_are_the_loop(net, np.arange(net.l))


def test_dc_flow_tiny():
    net = parse_case(json.dumps(TINY))
    op = dc_power_flow(net)
    assert abs(op.injections.sum()) < 1e-9
    # conservation at every bus
    A = incidence_matrix(net)
    np.testing.assert_allclose(A @ op.flows, -op.injections, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dc_flow_conservation_random(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, m=int(rng.integers(4, 14)),
                         extra_edges=int(rng.integers(0, 5)))
    op = dc_power_flow(net)
    A = incidence_matrix(net)
    scale = max(1.0, np.abs(op.injections).max())
    assert abs(op.injections.sum()) < 1e-6 * net.base_mva
    np.testing.assert_allclose(A @ op.flows, -op.injections, atol=1e-6 * scale)


def test_case39_totals(case39):
    assert (case39.m, case39.l, case39.n) == (39, 46, 10)
    assert case39.d0.sum() == pytest.approx(6254.23, abs=0.5)


def test_case118_totals(case118):
    assert (case118.m, case118.l) == (118, 186)
    assert case118.d0.sum() == pytest.approx(4242.0, abs=0.5)


def test_bus_number_beyond_int64_is_named():
    doc = json.loads(json.dumps(TINY))
    doc["buses"].append({"id": 2**70, "pd_mw": 0.0})
    doc["branches"].append({"from": 3, "to": 2**70, "x_pu": 0.1})
    with pytest.raises(CaseError, match=f"bus number {2**70} does not fit in int64"):
        parse_case(json.dumps(doc))
    doc["branches"][-1]["to"] = doc["buses"][-1]["id"] = 2**63 - 1
    assert parse_case(json.dumps(doc)).bus_ids[-1] == 2**63 - 1


def test_network_columns_are_read_only_and_equality_is_a_bool():
    net, other = parse_case(json.dumps(TINY)), parse_case(json.dumps(TINY))
    assert (net == other) is True and (net != other) is False
    doc = json.loads(json.dumps(TINY))
    doc["branches"][0]["x_pu"] = 0.3
    assert (net == parse_case(json.dumps(doc))) is False
    with pytest.raises(TypeError):
        hash(net)
    with pytest.raises(ValueError):
        net.x[0] = 1.0


# Faults injected into random native documents.  Each takes the document
# and a random generator and edits the document in place.  Each skips rows
# that are not dicts and keys that are gone, so any sequence composes.
BAD_IDS = [True, False, "3", 1.5, float("inf"), float("nan"), None, -1, 0,
           2.0, 10**6]
BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, "5", None,
              True, "x", [], 10**400]


def _row(doc, table, rng):
    """A random row of the table; a throwaway dict if an earlier fault
    left no row to edit."""
    rows = doc.get(table)
    row = rows[int(rng.integers(len(rows)))] if isinstance(rows, list) and rows else {}
    return row if isinstance(row, dict) else {}


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _id_fault(doc, rng):
    where = int(rng.integers(5))
    value = _pick(rng, BAD_IDS)
    if where == 0:
        doc["slack_bus"] = value
    else:
        table, key = [("buses", "id"), ("gens", "bus"), ("branches", "from"),
                      ("branches", "to")][where - 1]
        _row(doc, table, rng)[key] = value


def _scalar_fault(doc, rng):
    doc[_pick(rng, ["base_mva", "base_freq_hz"])] = _pick(rng, BAD_FLOATS)


def _load_fault(doc, rng):
    _row(doc, "buses", rng)[_pick(rng, ["pd_mw", "pd_max_mw"])] = _pick(
        rng, BAD_FLOATS)


def _gen_fault(doc, rng):
    key = _pick(rng, ["pg_mw", "pg_max_mw", "inertia_s", "xd_prime_pu", "vm_pu"])
    _row(doc, "gens", rng)[key] = _pick(rng, BAD_FLOATS)


def _line_fault(doc, rng):
    row = _row(doc, "branches", rng)
    kind = int(rng.integers(3))
    if kind == 0:
        row["x_pu"] = _pick(rng, BAD_FLOATS)
    elif kind == 1 and "from" in row:
        row["to"] = row["from"]   # a self-loop
    else:
        row[_pick(rng, ["from", "to"])] = 1000


def _duplicate_fault(doc, rng):
    # a twin of a bus; the twin, the original or neither has a bad load
    original = _row(doc, "buses", rng)
    if not isinstance(doc.get("buses"), list):
        return
    twin = dict(original)
    doc["buses"].insert(int(rng.integers(len(doc["buses"]) + 1)), twin)
    bad = int(rng.integers(3))
    if bad < 2:
        (twin if bad == 0 else original)["pd_mw"] = _pick(
            rng, [float("nan"), -1.0, "x"])


def _missing_fault(doc, rng):
    table = _pick(rng, ["buses", "gens", "branches", None])
    row = doc if table is None else _row(doc, table, rng)
    if row:
        del row[_pick(rng, sorted(row))]


def _shape_fault(doc, rng):
    table = _pick(rng, ["buses", "gens", "branches"])
    if int(rng.integers(2)) and isinstance(doc.get(table), list) and doc[table]:
        doc[table][int(rng.integers(len(doc[table])))] = _pick(
            rng, [5, "x", [], None])
    else:
        doc[table] = _pick(rng, [5, {}, "ab", None, []])


def _unknown_gen_fault(doc, rng):
    _row(doc, "gens", rng)["bus"] = 1000


def _unknown_slack_fault(doc, rng):
    doc["slack_bus"] = 1000


def _disconnect_fault(doc, rng):
    # two buses, with a line between them, joined to nothing else
    for table in ("buses", "branches"):
        if not isinstance(doc.get(table), list):
            doc[table] = []
    doc["buses"] += [{"id": 1001, "pd_mw": 1.0}, {"id": 1002, "pd_mw": 1.0}]
    doc["branches"].append({"from": 1001, "to": 1002, "x_pu": 0.1})


def _negative_generation_fault(doc, rng):
    _row(doc, "gens", rng)["pg_mw"] = -1e4


def _order_fault(doc, rng):
    # two fields that fail to convert, the later field in the earlier row:
    # only a conversion in document order reports the right one
    table, keys = _pick(rng, [
        ("gens", ["bus", "pg_mw", "pg_max_mw", "inertia_s", "xd_prime_pu",
                  "vm_pu"]),
        ("branches", ["from", "to", "x_pu"]),
        ("buses", ["id", "pd_mw", "pd_max_mw"])])
    rows = doc.get(table)
    rows = [row for row in rows if isinstance(row, dict)] if isinstance(rows, list) else []
    if len(rows) < 2:
        return
    r1, r2 = sorted(rng.choice(len(rows), size=2, replace=False).tolist())
    k1, k2 = sorted(rng.choice(len(keys), size=2, replace=False).tolist())
    rows[r1][keys[k2]] = f"bad {r1} {keys[k2]}"
    if rng.random() < 0.5:
        rows[r2][keys[k1]] = f"bad {r2} {keys[k1]}"
    else:
        rows[r2].pop(keys[k1], None)


def _shared_bus_fault(doc, rng):
    # more units at one generator's bus: its g0 sums them in file order
    unit = _row(doc, "gens", rng)
    if "bus" in unit and isinstance(doc.get("gens"), list):
        for _ in range(int(rng.integers(1, 4))):
            doc["gens"].insert(int(rng.integers(len(doc["gens"]) + 1)),
                               {**unit, "pg_mw": float(rng.uniform(0, 1)),
                                "pg_max_mw": float(rng.uniform(1, 2))})


FAULTS = [_order_fault, _shared_bus_fault, _id_fault, _scalar_fault, _load_fault, _gen_fault, _line_fault,
          _duplicate_fault, _missing_fault, _shape_fault, _unknown_gen_fault,
          _unknown_slack_fault, _disconnect_fault, _negative_generation_fault]


def _layout(doc, rng):
    """The same network with rows shuffled, lines reversed and parallel
    twins added, so the parse has orders and ties to get right."""
    for table in ("buses", "branches"):
        doc[table] = [doc[table][k] for k in rng.permutation(len(doc[table]))]
    for br in doc["branches"]:
        if rng.random() < 0.5:
            br["from"], br["to"] = br["to"], br["from"]
    for _ in range(int(rng.integers(0, 3))):
        twin = dict(_row(doc, "branches", rng))
        twin["x_pu"] = float(rng.uniform(0.01, 0.2))
        doc["branches"].insert(int(rng.integers(len(doc["branches"]) + 1)), twin)


def _outcome(parse, *args):
    """('ok', network) or (exception class, message)."""
    try:
        return "ok", parse(*args)
    except Exception as exc:   # any class, so that both must agree on it
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert_same_network(got[1], want[1])
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(FAULTS), max_size=2))
# injectors that edit what an earlier one replaced or removed
@example(23757236, [_shape_fault, _duplicate_fault])
@example(46004, [_order_fault, _order_fault])
@example(306950699, [_order_fault, _line_fault])
def test_parse_matches_the_record_reference(seed, faults):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 5))
    doc = random_case_doc(rng, m=int(rng.integers(n_gens + 1, 12)),
                          extra_edges=int(rng.integers(0, 4)), n_gens=n_gens)
    _layout(doc, rng)
    for fault in faults:
        fault(doc, rng)
    text = json.dumps(doc)
    _assert_same_outcome(_outcome(parse_case, text),
                         _outcome(from_native_reference, json.loads(text)))


def _matpower(doc, rng):
    """doc's network as MATPOWER tables and a dynamics document, with
    out-of-service rows, units without dynamic data and a stray unit."""
    kind = {g["bus"]: 2 for g in doc["gens"]} | {doc["slack_bus"]: 3}
    buses = [f"{b['id']} {kind.get(b['id'], 1)} {b['pd_mw']!r}"
             for b in doc["buses"]]
    gens, machines = [], {}
    for g in doc["gens"]:
        status = int(rng.random() < 0.9)
        gens.append(f"{g['bus']} {g['pg_mw']!r} 0 0 0 1 100 {status} "
                    f"{g['pg_max_mw']!r}")
        if rng.random() < 0.8:
            machines[str(g["bus"])] = {"inertia_s": g["inertia_s"],
                                       "xd_prime_pu": g["xd_prime_pu"]}
    if rng.random() < 0.2:   # a unit at a bus the case does not have
        gens.append(f"{len(doc['buses']) + 4} 10.0 0 0 0 1 100 1 10.0")
    if rng.random() < 0.2:
        buses.append(_pick(rng, buses))   # a duplicate bus row
    lines = [f"{br['from']} {br['to']} 0 {br['x_pu']!r} 0 0 0 0 0 0 "
             f"{int(rng.random() < 0.95)}" for br in doc["branches"]]
    case = "".join(f"mpc.{name} = [\n" + "\n".join(rows) + "\n];\n"
                   for name, rows in (("bus", buses), ("gen", gens),
                                      ("branch", lines)))
    return case, json.dumps({"machines": machines})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matpower_import_matches_the_record_reference(seed):
    rng = np.random.default_rng(seed)
    n_gens = int(rng.integers(1, 5))
    doc = random_case_doc(rng, m=int(rng.integers(n_gens + 1, 12)),
                          extra_edges=int(rng.integers(0, 4)), n_gens=n_gens)
    _layout(doc, rng)
    case, dyn = _matpower(doc, rng)
    got = _outcome(parse_case, case, dyn)
    with mock.patch.object(netcase, "_from_native", from_native_reference):
        want = _outcome(parse_case, case, dyn)
    _assert_same_outcome(got, want)


def test_parsed_network_holds_no_per_element_objects(monkeypatch):
    # one object per bus, line and generator would be 7,824 here
    bench = os.path.join(ROOT, "perfbench")
    monkeypatch.syspath_prepend(bench)
    import inputs

    monkeypatch.setattr(inputs, "TIED_COPIES", 24)
    text = inputs.tied_case(inputs.load_case118(ROOT), 1)
    gc.collect()
    before = len(gc.get_objects())
    net = parse_case(text)
    gc.collect()
    assert net.m == 2832
    assert len(gc.get_objects()) - before < 100
