import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridisland.netcase import (
    CaseError,
    dc_power_flow,
    incidence_matrix,
    parse_case,
    serialize_case,
)

from casekit import DATA, random_network

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
    assert net.buses[1].d0 == 60.0
    assert net.gens[0].inertia == 10.0


def test_round_trip():
    net = parse_case(json.dumps(TINY))
    again = parse_case(serialize_case(net))
    assert serialize_case(again) == serialize_case(net)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["buses"].append({"id": 1, "pd_mw": 0.0}), "duplicate bus"),
        (lambda d: d["branches"].append({"from": 1, "to": 9, "x_pu": 0.1}),
         "unknown bus"),
        (lambda d: d["branches"][0].update(x_pu=-0.1), "nonpositive reactance"),
        (lambda d: d["branches"].clear(), "not connected"),
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
    assert serialize_case(parse_case(json.dumps(doc))) == serialize_case(
        parse_case(json.dumps(TINY)))


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
    assert serialize_case(imported) == serialize_case(native)


def test_matpower_requires_dynamics():
    with pytest.raises(CaseError, match="dynamics"):
        parse_case(MPC)


def test_canonical_edge_order():
    net = parse_case(json.dumps(TINY))
    names = [br.name for br in net.branches]
    assert names == ["1-2", "1-3", "2-3"]
    assert [br.index for br in net.branches] == [0, 1, 2]


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
    assert case39.d0_vector().sum() == pytest.approx(6254.23, abs=0.5)


def test_case118_totals(case118):
    assert (case118.m, case118.l) == (118, 186)
    assert case118.d0_vector().sum() == pytest.approx(4242.0, abs=0.5)
