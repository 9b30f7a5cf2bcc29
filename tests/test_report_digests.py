import importlib.util
import json
import os
import sys
import types

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture
def report_digests(monkeypatch):
    # the script pins the BLAS threads in os.environ when imported
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(
        "report_digests", os.path.join(ROOT, "scripts", "report_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_report(kept, J, k01, swaps):
    method = {"kept": kept, "cutset": ["1-2"], "islands": [[1], [2, 3]],
              "generator_groups": [[1], [2]], "J": J, "swaps": swaps}
    doc = {"refs": {"greedy": [1, 2], "used": [1, 2]},
           "model": {"K": [[-1.5, k01], [k01, -1.5]]},
           "runs": [{"xi": 1e-6, "methods": {"weak-submodular": method}}]}
    return 0, json.dumps(doc), ""


def test_compare_reports_names_decisions_and_the_largest_float_change(
        report_digests):
    compare = report_digests.compare_reports
    argv = ["run", "--method", "weak-submodular", "--dump-model"]
    old = run_report([0, 2], 0.5, 1.5, 3)
    assert compare(old, old, argv) == ([], [], -1.0)
    # a zero whose sign changed is a change of relative size 0
    assert compare(run_report([0, 2], 0.5, -0.0, 3),
                   run_report([0, 2], 0.5, 0.0, 3), argv) == ([], [], 0.0)
    decisions, other, rel = compare(
        old, run_report([0, 1], 0.5005, 1.5000015, 4), argv)
    assert decisions == ["kept"]
    assert other == [".runs[0].methods.weak-submodular.swaps"]
    assert rel == pytest.approx(0.0005 / 0.5005)   # of the larger value
    # an error in place of a report: a field that is gone is named at
    # its top, and the exit code differs
    failed = (1, json.dumps({"error": "ModelError", "message": "m"}), "")
    assert compare(old, failed, argv) == (
        ["refs"], [".error", ".message", ".model", ".runs", "exit code"],
        -1.0)


def test_compare_reports_reads_refsel_csv_and_table_reports(report_digests):
    compare = report_digests.compare_reports
    refsel = ["refsel", "--r", "2"]
    a = (0, json.dumps({"greedy": [1, 2], "pivoting": [1, 2]}), "")
    b = (0, json.dumps({"greedy": [1, 3], "pivoting": [1, 2]}), "")
    assert compare(a, b, refsel) == (["refs"], [], -1.0)
    header = "method,xi,J,sqrt_f_mw,H_bar,cutset\n"
    csv_a = (0, header + "spectral,1e-06,0.5,10.0,2.0,1-2;3-4\n", "")
    csv_b = (0, header + "spectral,1e-06,0.5,10.1,2.0,1-2;3-5\n", "")
    assert compare(csv_a, csv_b, ["run", "--format", "csv"]) == (
        ["cutset"], [], pytest.approx(0.1 / 10.1))
    table_a = (0, "Method xi J\nspectral 1e-06 0.4568\n", "")
    table_b = (0, "Method xi J\nspectral 1e-06 0.4569\n", "")
    assert compare(table_a, table_b, ["run", "--format", "table"])[:2] == (
        [], [])


def test_against_exits_with_1_only_when_a_run_differs(report_digests,
                                                     monkeypatch, tmp_path):
    printed = {"PARENT": "[1, 2]", "this": "[1, 2]"}

    def load_cli(root):
        text = printed["PARENT" if root == "PARENT" else "this"]
        return types.SimpleNamespace(main=lambda argv: print(text) or 0)

    monkeypatch.setattr(report_digests, "load_cli", load_cli)
    monkeypatch.setattr(report_digests, "write_cases", lambda out_dir: {})
    monkeypatch.setattr(report_digests, "argv_set", lambda paths: [["refsel"]])
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "--against",
                                      "PARENT", "--cases", str(tmp_path)])
    assert report_digests.main() == 0
    printed["PARENT"] = "[1, 3]"
    assert report_digests.main() == 1


def test_capture_records_an_uncaught_exception_as_exit_1(report_digests):
    def main(argv):
        print("partial")
        raise IndexError("index 0 is out of bounds")

    assert report_digests.capture(main, ["run"]) == (
        1, "partial\n", "IndexError: index 0 is out of bounds\n")


def test_env_reruns_the_set_in_a_subprocess_with_the_variable_set(
        report_digests, monkeypatch, tmp_path, capsys):
    # the subprocess runs the checkout under --root: here one whose CLI
    # prints the variable, so a run differs exactly when the rerun's value
    # differs from this process's, where it is unset
    package = tmp_path / "src" / "gridisland"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json, os\n\n\n"
        "def main(argv):\n"
        "    print(json.dumps([os.environ.get('DIGEST_PROBE', 'unset')]))\n"
        "    return 0\n")
    os.environ.pop("DIGEST_PROBE", None)
    here = types.SimpleNamespace(main=lambda argv: print('["unset"]') or 0)
    monkeypatch.setattr(report_digests, "load_cli", lambda root: here)
    monkeypatch.setattr(report_digests, "write_cases", lambda out_dir: {})
    monkeypatch.setattr(report_digests, "argv_set", lambda paths: [["refsel"]])
    argv = ["report_digests.py", "--root", str(tmp_path), "--cases",
            str(tmp_path / "cases"), "--env"]
    monkeypatch.setattr(sys, "argv", argv + ["DIGEST_PROBE=unset"])
    assert report_digests.main() == 0
    assert capsys.readouterr().out == (
        "0 of 1 runs differ under DIGEST_PROBE=unset\n")
    monkeypatch.setattr(sys, "argv", argv + ["DIGEST_PROBE=Prescott"])
    assert report_digests.main() == 1
    assert capsys.readouterr().out == (
        "refsel\n    decisions: refs; other: -; largest relative float "
        "change: -\n1 of 1 runs differ under DIGEST_PROBE=Prescott\n")
    monkeypatch.setattr(sys, "argv", argv + ["DIGEST_PROBE"])
    with pytest.raises(SystemExit):
        report_digests.main()
