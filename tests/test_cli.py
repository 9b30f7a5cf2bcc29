import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gridisland.cli import REPORT_DIGITS, main

from casekit import load_case

ROOT = os.path.join(os.path.dirname(__file__), "..")
CASE39 = os.path.join(ROOT, "data", "case39.json")


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


def metric_rows(**metrics):
    sol = dict({"J": 0.1, "sqrt_f_mw": 10.0, "H_bar": 1.0}, **metrics)
    return {"runs": [{"xi": 1e-6, "methods": {"a": sol, "b": sol}}]}


MISSING, DIRECTORY = object(), object()   # report paths that hold no text


@pytest.mark.parametrize("text", [
    "not json", "{\"runs\": [", "[1, 2]", json.dumps({"runs": 3}),
    json.dumps(metric_rows(J="x")), json.dumps(metric_rows(sqrt_f_mw=None)),
    json.dumps(metric_rows(H_bar=[1.0])),
    json.dumps(metric_rows(J=float("nan"))),
    json.dumps(metric_rows(sqrt_f_mw=float("inf"))),
    json.dumps(metric_rows()).replace('"H_bar": 1.0', '"H_bar": 1e400'),
    MISSING, DIRECTORY,
], ids=["text", "cut", "list", "runs", "J", "sqrt_f_mw", "H_bar", "NaN",
        "Infinity", "1e400", "missing", "directory"])
def test_compare_bad_report_is_a_json_error(text, tmp_path, capsys):
    path = tmp_path / "report.json"
    if text is DIRECTORY:
        path.mkdir()
    elif text is not MISSING:
        path.write_text(text)
    code, out, err = run_cli(["compare", str(path)], capsys)
    assert code == 1 and out == ""
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


def test_refs_set_the_island_count(capsys):
    # r = len(refs): --refs alone runs as with the matching --r
    reports = [run_cli(["run", "--case", CASE39, "--method", "both",
                        *r, "--refs", "30,31"], capsys)
               for r in ([], ["--r", "2"])]
    assert reports[0] == reports[1]
    code, out, _ = reports[0]
    assert code == 0 and json.loads(out)["config"]["r"] == 2


def test_negative_zero_weight_reports_as_zero(capsys):
    args = ["run", "--case", CASE39, "--method", "both", "--xi"]
    negative = run_cli(args + ["-0.0"], capsys)
    assert negative == run_cli(args + ["0"], capsys)
    code, out, _ = negative
    assert code == 0 and '"xi": -0.0' not in out


def test_refs_override_rejects_non_generator_bus(capsys):
    code, _, err = run_cli(
        ["run", "--case", CASE39, "--refs", "1,2,3"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "SelectionError"


@pytest.mark.parametrize("refs", ["39,x", "39,,34", "39.5,34,38", ""])
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


@pytest.mark.parametrize("args", [
    ["run", "--case", CASE39, "--r", "x"],
    ["run", "--case", CASE39, "--r", "2.5"],
    ["run", "--case", CASE39, "--epsilon", "abc"],
    ["refsel", "--case", CASE39, "--r", "x"],
])
def test_non_numeric_flags_are_json_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert args[-2] in json.loads(err)["message"]


def test_sweep_computes_baseline_partition_once(monkeypatch, capsys):
    import gridisland.cli as cli

    calls = []
    real = cli.two_step_partition

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "two_step_partition", counted)
    args = ["run", "--case", CASE39, "--method", "spectral"]
    code, out, _ = run_cli(args + ["--xi", "0,1e-6,1e-5"], capsys)
    assert code == 0 and len(calls) == 1
    for entry in json.loads(out)["runs"]:
        code, single, _ = run_cli(args + ["--xi", repr(entry["xi"])], capsys)
        assert code == 0 and json.loads(single)["runs"] == [entry]


def test_dump_model(capsys):
    code, out, _ = run_cli(
        ["run", "--case", CASE39, "--dump-model", "--xi", "0"], capsys)
    assert code == 0
    model = json.loads(out)["model"]
    assert np.array(model["L"]).shape == (10, 3)
    assert np.array(model["K"]).shape == (10, 10)
    net = load_case("case39.json")
    assert model["M"] == [round(2.0 * h / net.base_freq, REPORT_DIGITS)
                          for h in net.inertia.tolist()]


@pytest.mark.parametrize("name", ["case118", "meshed-120 2"])
def test_dump_model_prints_no_negative_zero_in_K(name, tmp_path, monkeypatch,
                                                 capsys):
    # both hold generator pairs with no coupling, so K holds zeros; case118
    # printed them as -0.0 when K was signed twice, meshed-120 draw 2 also
    # where the pair's internal angles differ by more than 90 degrees
    if name == "case118":
        case = os.path.join(ROOT, "data", "case118.json")
    else:
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import inputs

        case = tmp_path / "meshed.json"
        case.write_text(json.dumps(inputs.meshed_case(2)))
    code, out, _ = run_cli(["run", "--case", str(case), "--dump-model",
                            "--xi", "0"], capsys)
    assert code == 0
    K = np.array(json.loads(out)["model"]["K"])
    assert (K == 0).any()
    assert not np.signbit(K[K == 0]).any()


@pytest.mark.parametrize("command", ["run", "refsel"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_a_json_error(command, where, tmp_path, capsys):
    out_path = tmp_path if where == "directory" else tmp_path / "no" / "x.json"
    # the --out check comes before the case is read, so a malformed case
    # still ends in the UsageError, not a CaseError
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for case in (CASE39, str(bad)):
        code, out, err = run_cli(
            [command, "--case", case, "--out", str(out_path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "UsageError" and str(out_path) in doc["message"]
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("command", ["run", "refsel"])
def test_out_is_untouched_when_the_run_fails(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_path = tmp_path / "report.json"
    out_path.write_text("previous report")
    code, out, err = run_cli(
        [command, "--case", str(bad), "--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CaseError"
    assert out_path.read_text() == "previous report"


def test_missing_case_errors(capsys):
    for args in (["--case", "/no/such/file.json"],
                 ["--case", CASE39, "--dyn", "/no/such/file.json"]):
        code, _, err = run_cli(["run", *args], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "CaseError"


NOT_UTF8 = b"\xff\xfe{"


@pytest.mark.parametrize("command,error", [
    ("run --case {bad}", "CaseError"),
    ("refsel --case {bad}", "CaseError"),
    ("run --case {good} --dyn {bad}", "CaseError"),
    ("compare {bad}", "MetricError"),
])
def test_non_utf8_files_are_json_errors(command, error, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    args = command.format(bad=bad, good=CASE39).split()
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("args", [
    ["run", "--case", CASE39, "--method", "magic"],
    ["run", "--case", CASE39, "--format", "xml"],
    ["run", "--method", "both"],
    ["refsel"],
    ["run", "--case", CASE39, "--no-such-flag"],
    ["frobnicate"],
    [],
])
def test_usage_mistakes_are_json_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
def test_help_still_exits_zero(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert "usage: gridisland" in capsys.readouterr().out


def test_invalid_config_rejected(capsys):
    for flags, error in ((["--r", "0"], "IslandingError"),
                         (["--epsilon", "1.5"], "IslandingError"),
                         (["--epsilon", "1e-7"], "IslandingError"),
                         (["--method", "magic"], "UsageError"),
                         (["--xi=-1.0"], "MetricError")):
        code, out, err = run_cli(["run", "--case", CASE39, *flags], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error, flags


# inputs with more than one fault: the first fault in the CLI's checking
# order (--out, then --r, --xi, --epsilon, --refs as parsed, then their
# ranges: r >= 1, the weights, epsilon, --refs against --r and for a bus
# named twice, the baseline's r >= 2; then a table's row count, then the
# case) names the error
@pytest.mark.parametrize("command,error,message", [
    ("run --case {case} --r x --out {tmp}/no/r.json",
     "UsageError", "cannot write {tmp}/no/r.json: no such directory"),
    ("run --case {tmp}/missing.json --r x",
     "IslandingError", "--r must be an integer: 'x'"),
    ("run --case {case} --r 0 --xi x", "MetricError",
     "trade-off weights must be comma-separated numbers: 'x'"),
    ("run --case {case} --r 0 --epsilon x",
     "IslandingError", "--epsilon must be a number: 'x'"),
    ("run --case {case} --xi= --epsilon 2",
     "MetricError", "no trade-off weight given"),
    ("run --case {case} --xi=-1 --epsilon 2",
     "MetricError", "trade-off weight must be finite and nonnegative"),
    ("run --case {case} --epsilon nan --refs a", "SelectionError",
     "reference buses must be comma-separated bus ids: 'a'"),
    ("run --case {tmp}/missing.json --r 0",
     "IslandingError", "island count r must be at least 1"),
    ("run --case {case} --method magic --r x",
     "UsageError", "argument --method: invalid choice: 'magic'"),
    ("run --case {tmp}/no/such.json --format table",
     "MetricError", "comparison needs at least two method results"),
    ("run --case {tmp}/missing.json --r 2 --refs 30,31,32",
     "SelectionError", "--r 2 disagrees with the 3 buses of --refs"),
    ("run --case {tmp}/missing.json --refs 30,31,30",
     "SelectionError", "--refs names bus 30 twice"),
    ("run --case {tmp}/missing.json --r 1 --method both",
     "BaselineError", "the spectral baseline needs r >= 2"),
    ("run --case {tmp}/missing.json --refs 30 --method spectral",
     "BaselineError", "the spectral baseline needs r >= 2"),
    ("run --case {tmp}/missing.json --epsilon 1 --refs 30,30",
     "IslandingError", "epsilon must lie in [1e-06, 1)"),
    ("run --case {tmp}/missing.json --r 1 --refs 30,31 --method both",
     "SelectionError", "--r 1 disagrees with the 2 buses of --refs"),
    ("run --case {tmp}/missing.json --r 1 --method spectral --format table",
     "BaselineError", "the spectral baseline needs r >= 2"),
    ("refsel --case {tmp}/missing.json --r 0",
     "SelectionError", "island count r must be at least 1"),
    ("refsel --case {case} --r x",
     "SelectionError", "--r must be an integer: 'x'"),
    ("refsel --case {tmp}/missing.json --r x",
     "SelectionError", "--r must be an integer: 'x'"),
])
def test_error_precedence(command, error, message, tmp_path, capsys):
    code, out, err = run_cli(
        command.format(case=CASE39, tmp=tmp_path).split(), capsys)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == error
    assert doc["message"].startswith(message.format(tmp=tmp_path))


def test_reported_metrics_revalidate(capsys):
    # every reported metric must recompute from the reported kept set
    from casekit import pipeline
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


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    # numpy is the one runtime dependency: a full run of both methods
    # loads neither a graph library nor scipy
    import gridisland

    src = os.path.dirname(os.path.dirname(gridisland.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "report.json"
    script = (
        "import sys\n"
        "from gridisland.cli import main\n"
        f"code = main(['run', '--case', {CASE39!r}, '--method', 'both',"
        f" '--out', {str(out)!r}])\n"
        "print(code, [m for m in ('networkx', 'scipy') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert set(json.loads(out.read_text())["runs"][0]["methods"]) == {
        "weak-submodular", "spectral"}
