import json
import os

import numpy as np
import pytest

from gridisland.cli import RunConfig, compare, main, run

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CASE39 = os.path.join(DATA, "case39.json")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_report_schema(capsys):
    code, out, err = run_cli(
        ["run", "--case", CASE39, "--method", "both", "--xi", "1e-6"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["case"] == {"buses": 39, "branches": 46, "generators": 10}
    assert doc["refs"]["greedy"] == doc["refs"]["used"]
    (entry,) = doc["runs"]
    assert entry["xi"] == 1e-6
    for name in ("weak-submodular", "spectral"):
        sol = entry["methods"][name]
        assert set(sol) >= {"cutset", "islands", "J", "sqrt_f_mw", "H_bar",
                            "trace"}
        assert len(sol["islands"]) == 3


def test_repeated_runs_byte_identical(tmp_path, capsys):
    args = ["run", "--case", CASE39, "--method", "both",
            "--xi", "1e-7,1e-6"]
    a = run_cli(args + ["--out", str(tmp_path / "a.json")], capsys)
    b = run_cli(args + ["--out", str(tmp_path / "b.json")], capsys)
    assert a[0] == b[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_single_island_trivial(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--r", "1", "--xi", "0"], capsys)
    assert code == 0
    sol = json.loads(out)["runs"][0]["methods"]["weak-submodular"]
    assert sol["cutset"] == []
    assert len(sol["islands"]) == 1
    assert sol["H_bar"] >= 0.0


def test_xi_sweep_imbalance_monotone(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--xi", "0,1e-7,1e-5,1e-3"], capsys)
    assert code == 0
    doc = json.loads(out)
    sf = [e["methods"]["weak-submodular"]["sqrt_f_mw"] for e in doc["runs"]]
    for a, b in zip(sf, sf[1:]):
        assert b <= a + 1e-9


def test_table_format(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--method", "both", "--format", "table"],
        capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["Method", "xi", "J", "sqrt_f_MW", "H_bar"]
    assert len(lines) == 4  # header, rule, two methods


def test_csv_format(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--method", "both", "--format", "csv"],
        capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "method,xi,J,sqrt_f_mw,H_bar,cutset"
    assert len(rows) == 3


def test_compare_subcommand(tmp_path, capsys):
    path = tmp_path / "report.json"
    run_cli(["run", "--case", CASE39, "--method", "both",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["compare", str(path)], capsys)
    assert code == 0
    assert "weak-submodular" in out and "spectral" in out


def test_compare_single_method_errors(tmp_path, capsys):
    path = tmp_path / "report.json"
    run_cli(["run", "--case", CASE39, "--out", str(path)], capsys)
    code, _, err = run_cli(["compare", str(path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "MetricError"


def test_refsel_subcommand(capsys):
    code, out, _ = run_cli(["refsel", "--case", CASE39], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["greedy"]) == sorted(doc["pivoting"])
    assert len(doc["greedy"]) == 3


def test_refs_override(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--refs", "30,33,36", "--xi", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["refs"]["used"] == [30, 33, 36]


def test_refs_override_rejects_non_generator_bus(capsys):
    code, _, err = run_cli(
        ["run", "--case", CASE39, "--refs", "1,2,3"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "SelectionError"


@pytest.mark.parametrize("refs", ["39,x", "39,,34", "39.5,34,38"])
def test_refs_override_rejects_non_integer(refs, capsys):
    code, out, err = run_cli(
        ["run", "--case", CASE39, "--refs", refs], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "SelectionError"


@pytest.mark.parametrize("xi", [",", " , ", "nan", "1e-6,inf", "1e-6,abc"])
def test_xi_list_must_hold_finite_weights(xi, capsys):
    code, out, err = run_cli(["run", "--case", CASE39, "--xi", xi], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "MetricError"


def test_dump_model(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--dump-model", "--xi", "0"], capsys)
    assert code == 0
    model = json.loads(out)["model"]
    assert np.array(model["L"]).shape == (10, 3)
    assert np.array(model["K"]).shape == (10, 10)
    assert len(model["M"]) == 10


def test_missing_case_errors(capsys):
    code, _, err = run_cli(["run", "--case", "/no/such/file.json"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "CaseError"


def test_invalid_config_rejected():
    with pytest.raises(Exception):
        RunConfig(case=CASE39, r=0).validate()
    with pytest.raises(Exception):
        RunConfig(case=CASE39, epsilon=1.5).validate()
    with pytest.raises(Exception):
        RunConfig(case=CASE39, method="magic").validate()
    with pytest.raises(Exception):
        RunConfig(case=CASE39, xi=[-1.0]).validate()


def test_reported_metrics_revalidate(capsys):
    # every reported metric must recompute from the reported kept set
    from casekit import load_case, pipeline
    from gridisland.metrics import J, f

    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--xi", "1e-6"], capsys)
    assert code == 0
    sol = json.loads(out)["runs"][0]["methods"]["weak-submodular"]
    net = load_case("case39.json")
    op, model, ctx = pipeline(net, r=3, xi=1e-6)
    S = sol["kept"]
    assert sol["J"] == pytest.approx(J(ctx, S), abs=1e-9)
    assert sol["sqrt_f_mw"] == pytest.approx(float(np.sqrt(f(ctx, S))),
                                             abs=1e-9)
