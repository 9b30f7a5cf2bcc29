"""Every CLI input ends in a report (exit 0) or one JSON error line (exit 1).

Hypothesis mutates small random cases (native JSON, or MATPOWER tables
with a dynamics document), flag values and compare reports.  It also
splices bytes that are not UTF-8 into the files, draws invalid
``--method`` and ``--format`` choices, and drops the required ``--case``.
A report is valid JSON, with no NaN or Infinity, and leaves stderr empty.
Fixed inputs cover an epsilon below the floor, results and weighted
targets too large for double precision, JSON nested too deeply to parse
and a bus number that does not fit in int64.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridisland
from gridisland.cli import main

from casekit import DATA, random_case_doc

CASE39 = os.path.join(DATA, "case39.json")

DELETE = object()
VALUES = st.just(DELETE) | st.floats() | st.integers(-3, 300) | st.sampled_from(
    [None, True, -1, 0, 3, 1e-300, 1e308, 1.7e308, "x", [], {}])
FLAGS = st.lists(st.tuples(
    st.sampled_from(["--r", "--xi", "--epsilon", "--refs"]),
    st.sampled_from(["0", "1", "2", "3", "9", "-1", "2.5", "0.5", "1e-6",
                     "1e6", "0,1e-5", "nan", "inf", "x", ",", "1,2",
                     "1,1"])),
    max_size=3)
# half the draws carry no deliberate mistake
MISTAKES = [None] * 4 + ["not-utf8", "method", "format", "no-case"]
SOL = {"J": 0.1, "sqrt_f_mw": 10.0, "H_bar": 1.0, "cutset": []}
REPORT = {"runs": [{"xi": 1e-6, "methods": {"a": SOL, "b": SOL}}]}


def mutate(doc, edits):
    """Set or delete the k-th (container, key) slot of doc, per edit."""
    def slots(obj):
        items = (obj.items() if isinstance(obj, dict)
                 else enumerate(obj) if isinstance(obj, list) else ())
        for key, value in list(items):
            yield obj, key
            yield from slots(value)

    for k, value in edits:
        found = list(slots(doc))
        if found:
            obj, key = found[k % len(found)]
            if value is DELETE:
                del obj[key]
            else:
                obj[key] = value
    return doc


def matpower(doc, edits):
    """doc's network as MATPOWER table text and a dynamics document."""
    t = mutate({
        "bus": [[b["id"], 3 if b["id"] == doc["slack_bus"] else 1, b["pd_mw"]]
                for b in doc["buses"]],
        "gen": [[g["bus"], g["pg_mw"]] for g in doc["gens"]],
        "branch": [[br["from"], br["to"], 0, br["x_pu"]] for br in doc["branches"]],
        "dyn": {"machines": {str(g["bus"]): {k: g[k] for k in (
            "inertia_s", "xd_prime_pu")} for g in doc["gens"]}},
    }, edits)

    def rows(rs):
        return "\n".join(" ".join(map(str, r)) if isinstance(r, list) else str(r)
                         for r in (rs if isinstance(rs, list) else [rs]))
    return ("".join(f"mpc.{name} = [\n{rows(t[name])}\n];\n"
                    for name in ("bus", "gen", "branch") if name in t),
            json.dumps(t.get("dyn")))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), edits=st.lists(st.tuples(
           st.integers(0, 10**4), VALUES), max_size=3),
       kind=st.sampled_from(["native", "matpower", "report"]),
       cut=st.none() | st.integers(0, 300), flags=FLAGS,
       command=st.sampled_from(["run", "refsel"]),
       method=st.sampled_from(["weak-submodular", "spectral", "both"]),
       fmt=st.sampled_from(["json", "csv", "table"]),
       mistake=st.sampled_from(MISTAKES))
def test_cli_answers_with_a_report_or_one_json_error(
        seed, edits, kind, cut, flags, command, method, fmt, mistake):
    rng = np.random.default_rng(seed)
    doc = random_case_doc(rng, m=int(rng.integers(3, 9)),
                          extra_edges=int(rng.integers(0, 4)),
                          n_gens=int(rng.integers(1, 4)))
    with tempfile.TemporaryDirectory() as tmp:
        case, dyn = os.path.join(tmp, "case"), os.path.join(tmp, "dyn")
        argv = [command, "--case", case]
        if kind == "report":
            argv = ["compare", case]
            text = json.dumps(mutate(json.loads(json.dumps(REPORT)), edits))
        elif kind == "matpower":
            text, dyn_text = matpower(doc, edits)
            with open(dyn, "w") as fh:
                fh.write(dyn_text)
            argv += ["--dyn", dyn]
        else:
            text = json.dumps(mutate(doc, edits))
        data = text[:cut].encode()
        if mistake == "not-utf8":   # ff fe is never valid UTF-8
            at = seed % (len(data) + 1)
            data = data[:at] + b"\xff\xfe" + data[at:]
        with open(case, "wb") as fh:
            fh.write(data)
        if mistake == "no-case" and argv[0] != "compare":
            argv.remove("--case")
            argv.remove(case)
        if argv[0] == "run":
            argv += ["--method", "magic" if mistake == "method" else method,
                     "--format", "xml" if mistake == "format" else fmt]
        argv += [a for flag in flags if argv[0] == "run" or (
            argv[0] == "refsel" and flag[0] == "--r") for a in flag]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    if code != 0:
        assert code == 1 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert sorted(json.loads(line)) == ["error", "message"]
    else:
        assert err.getvalue() == ""
        if argv[0] == "refsel" or (argv[0] == "run" and fmt == "json"):
            json.loads(out.getvalue(), parse_constant=reject_constant)
        if argv[0] == "compare":
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


def reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def cli_process(argv, timeout=60):
    """Exit code, stdout and stderr of the CLI in a fresh interpreter; a
    run that has not returned after `timeout` seconds fails the test."""
    src = os.path.dirname(os.path.dirname(gridisland.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gridisland.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def write_inputs(tmp_path) -> dict:
    """Fixed bad inputs: a 1e308 MW load, loads of 1.7e308 MW at buses
    14 and 38 (their total overflows, so the slack's injection is
    infinite), a 1.7e308 MW unit at bus 32, a 1e308 p.u. machine
    voltage, a 1e308 MW unit with xd' = 10 p.u. on a 1 MVA base (its
    internal angle overflows), the same unit as the case's only
    generator, bus 1 renumbered 2**70, a line of reactance 5e-324
    (weight 1/x = inf) between generator buses 33 and 34, 200,000-deep
    JSON and a MATPOWER case to pair with it as the dynamics document."""
    with open(CASE39) as fh:
        text = fh.read()
    big_load, big_loads, big_unit, big_voltage, big_angle, big_id, strong = (
        json.loads(text) for _ in range(7))
    big_load["buses"][3]["pd_mw"] = 1e308
    for bus in big_loads["buses"]:
        if bus["id"] in (14, 38):
            bus["pd_mw"] = 1.7e308
    for gen in big_unit["gens"]:
        if gen["bus"] == 32:
            gen["pg_mw"] = 1.7e308
    big_voltage["gens"][0]["vm_pu"] = 1e308
    big_angle["base_mva"] = 1
    big_angle["gens"][0].update(pg_mw=1e308, xd_prime_pu=10)
    lone_angle = {**big_angle, "gens": big_angle["gens"][:1]}
    strong["branches"].append({"from": 33, "to": 34, "x_pu": 5e-324})
    for row, key in ([(b, "id") for b in big_id["buses"]]
                     + [(br, end) for br in big_id["branches"]
                        for end in ("from", "to")]):
        if row[key] == 1:
            row[key] = 2**70
    files = {
        "big-load": json.dumps(big_load),
        "big-loads": json.dumps(big_loads),
        "big-unit": json.dumps(big_unit),
        "big-voltage": json.dumps(big_voltage),
        "big-angle": json.dumps(big_angle),
        "lone-angle": json.dumps(lone_angle),
        "big-id": json.dumps(big_id),
        "strong-line": json.dumps(strong),
        "deep": '{"a":' + "[" * 200_000 + "]" * 200_000 + "}",
        "matpower": "mpc.bus = [\n1 3 0\n2 1 50\n];\nmpc.gen = [\n1 50\n];\n"
                    "mpc.branch = [\n1 2 0 0.1\n];\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


@pytest.mark.parametrize("argv, error", [
    # a smaller epsilon accepts swaps that leave the partition unchanged
    # and cycles forever on this input
    (["run", "--case", CASE39, "--r", "2", "--epsilon", "1e-15"],
     "IslandingError"),
    (["run", "--case", CASE39, "--r", "2", "--method", "spectral",
      "--epsilon", "9.99e-7"], "IslandingError"),
    (["run", "--case", CASE39, "--r", "2", "--xi", "1e308"], "MetricError"),
    (["run", "--case", CASE39, "--r", "2", "--xi", "1e308", "--format",
      "csv"], "MetricError"),
    (["run", "--case", "big-load", "--r", "2"], "MetricError"),
    (["run", "--case", "deep"], "CaseError"),
    (["refsel", "--case", "deep"], "CaseError"),
    (["run", "--case", "matpower", "--dyn", "deep"], "CaseError"),
    (["compare", "deep"], "MetricError"),
    # K overflows to inf, on which the eigensolver fails
    (["run", "--case", "big-voltage", "--r", "2"], "ModelError"),
    (["refsel", "--case", "big-voltage"], "ModelError"),
    # no pivot reads the infinite weight between two generator buses;
    # the grounded system of the kept buses holds it
    (["run", "--case", "strong-line", "--r", "2"], "CaseError"),
    (["refsel", "--case", "strong-line"], "CaseError"),
    # a bus number must fit in int64
    (["run", "--case", "big-id"], "CaseError"),
    (["refsel", "--case", "big-id"], "CaseError"),
    # a weighted target is NaN or infinite, so every merge gain is NaN
    (["run", "--case", "big-loads", "--r", "3", "--xi", "0"], "MetricError"),
    (["run", "--case", "big-unit", "--r", "3", "--xi", "1e6"], "MetricError"),
])
def test_fixed_bad_inputs_end_in_one_json_error(tmp_path, argv, error):
    paths = write_inputs(tmp_path)
    code, out, err = cli_process([paths.get(a, a) for a in argv])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == error


@pytest.mark.parametrize("argv", [
    ["run", "--case", "big-angle", "--r", "2"],
    ["refsel", "--case", "big-angle"],
    # a lone generator has no coupled pair, so no cosine would see it
    ["run", "--case", "lone-angle", "--r", "1"],
    ["refsel", "--case", "lone-angle", "--r", "1"],
])
def test_an_infinite_internal_angle_is_named(tmp_path, argv):
    paths = write_inputs(tmp_path)
    code, out, err = cli_process([paths.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ModelError",
        "message": "internal rotor angles are not finite: an input is too "
                   "large for double precision"}


@pytest.mark.parametrize("method", ["weak-submodular", "spectral", "both"])
@pytest.mark.parametrize("argv", [
    ["run", "--case", "big-loads", "--r", "3", "--xi", "0"],
    ["run", "--case", "big-unit", "--r", "3", "--xi", "1e6"],
])
def test_non_finite_weighted_targets_are_named(tmp_path, argv, method):
    paths = write_inputs(tmp_path)
    code, out, err = cli_process([paths.get(a, a) for a in argv]
                                 + ["--method", method])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "MetricError",
        "message": "weighted targets are not finite: an input is too large "
                   "for double precision"}


@pytest.mark.parametrize("argv", [
    ["run", "--case", "big-voltage", "--r", "2"],
    ["refsel", "--case", "big-voltage"],
])
def test_an_overflowing_coupling_matrix_is_named(tmp_path, argv):
    # V_0 V_0 = inf times Y_00 = 0 leaves NaN in K, which also fails the
    # exact symmetry test; the finiteness check speaks first
    paths = write_inputs(tmp_path)
    code, out, err = cli_process([paths.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ModelError",
        "message": "coupling matrix is not finite: an input is too large "
                   "for double precision"}
