#!/usr/bin/env python3
"""Digest the reports of a fixed set of CLI runs, to compare two checkouts.

Runs ``gridisland.cli.main`` in-process on a fixed argv set and prints
``sha256  argv`` per run; the hash covers the exit code, stdout and
stderr.  The argv set:

- ``run --method both --xi 0,1e-8,1.78e-7,1e-6,1e-5 --dump-model`` at
  r = 2..5 on case39, case118, meshed-120 draws 1 and 2 and tied x2
  (seed 7);
- ``refsel --r 3`` and ``refsel --r 8`` on the same cases;
- 30 random networks (``tests/casekit.random_case_doc``) at r = 2..4
  with ``--method both``;
- case39 as MATPOWER ``mpc.bus`` / ``mpc.gen`` / ``mpc.branch`` tables
  with a ``--dyn`` document of its machines, and a variant where one
  unit has no dynamic data and one line and one unit are out of service:
  ``run --method both --xi 0,1e-6,1e-5 --dump-model`` at r = 2..4 and
  ``refsel --r 3`` on each;
- on case39 and case118: ``run --method both --xi 0,1e-6,1e-5
  --dump-model --refs`` with two lists of distinct generator buses at
  r = 2 and 3, neither in the greedy selection's order; ``--method
  spectral`` alone; ``--method weak-submodular --epsilon 1e-2``; and
  ``--method both`` with ``--format csv`` and ``--format table``;
- ``run --method spectral --r 8`` on case118, meshed-120 draw 1 and
  tied x2: seven constrained min cuts each;
- on case39, ``run --format table`` alone (one row, so the one-line
  error) and ``run --method spectral --xi 1e-6,1e-5 --format table``;
- ``refsel --r 8`` on tied x24 at seeds 1 and 2, the tied118-refsel
  benchmark's own inputs;
- ``run --method both --r 4 --xi 0,1e-6`` on tied x4 (seed 7);
- ``run --method both --dump-model`` on case118 with a parallel twin
  added to the line between generator buses 25 and 26;
- on case39, inputs the run parameters' rules decide: ``refsel --r 0``,
  ``run --r 1 --method both``, ``run --refs 30,31`` with no ``--r``,
  ``run --refs 30,30 --r 2`` and ``run --xi=-0.0``;
- ``run --r 2`` and ``refsel --r 3`` on case39 with a line of reactance
  5e-324 added between generator buses 33 and 34, whose weight 1/x is
  infinite: one error line each;
- ``run --r 2`` and ``refsel --r 3`` on case39 with a machine voltage of
  1e308 p.u. on the first generator, whose products overflow K: one error
  line each;
- ``run --r 3 --xi 0`` on case39 with loads of 1.7e308 MW at buses 14
  and 38, whose total overflows, and ``run --r 3 --xi 1e6`` on case39
  with a 1.7e308 MW unit at bus 32, where sqrt(xi) b0 overflows: the
  weighted targets are not finite, one error line each;
- ``refsel --r 3`` and ``run --r 3 --method both`` on case39 at a base
  frequency of 1e-310 Hz, whose inertias 2H/omega overflow: one error
  line each.

A run that raises out of ``main`` is recorded as exit code 1 with the
exception's last traceback line as stderr.

The cases come from this checkout (``data/``, ``perfbench/inputs.py``
read-only, ``tests/casekit.py``) and are written to one fixed directory,
so every checkout reports the same ``config.case`` string; the program
run is the one under ``--root``'s ``src/``.  To compare a change with
its parent::

    python scripts/report_digests.py --root PARENT_CHECKOUT > old.txt
    python scripts/report_digests.py > new.txt
    diff old.txt new.txt

``--against PARENT_CHECKOUT`` runs both checkouts and prints, for each
run whose report differs, the decision fields that differ (``kept``,
``cutset``, ``islands``, ``generator_groups``, ``refs``; a ``refsel``
report is all ``refs``), any other field that differs other than by a
float, and the largest relative change of any float; then the count of
runs that differ.  It exits with 1 when any run differs and with 0 when
none does.  CSV reports are read by their header and tables as
rows of cells.  A relative change of 0 is a zero whose sign changed.

``--env VAR=VALUE`` instead reruns the set on this checkout in a
subprocess with that environment variable set, and lists the runs whose
reports differ from this process's in the same way.  Variables read when a library loads, such as
``OPENBLAS_CORETYPE``, take effect only in a new process::

    python scripts/report_digests.py --env OPENBLAS_CORETYPE=Prescott
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")   # before numpy loads

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XI = "0,1e-8,1.78e-7,1e-6,1e-5"
RANDOM_NETWORKS = 30
MPC_XI = "0,1e-6,1e-5"
# the MATPOWER variant: a unit left out of --dyn, a line and a unit at status 0
NO_DYN_BUS, OFF_LINE, OFF_GEN_BUS = 32, (1, 39), 36
# the line between two generator buses of case118 that gets a parallel twin
TWIN_LINE = {"from": 25, "to": 26, "x_pu": 0.05}
# a line between two generator buses of case39 whose weight 1/x is inf
STRONG_LINE = {"from": 33, "to": 34, "x_pu": 5e-324}
# a machine voltage on case39's first generator whose products overflow
BIG_VOLTAGE = 1e308
# loads on case39 whose total overflows, and a unit whose sqrt(xi) b0 does
BIG_LOAD_BUSES, BIG_UNIT_BUS, BIG_MW = (14, 38), 32, 1.7e308
# a base frequency on case39 whose inertias 2H/omega overflow
TINY_FREQ_HZ = 1e-310
# the report fields that record a decision rather than a value
DECISIONS = ("kept", "cutset", "islands", "generator_groups", "refs")
# reference buses per case and r: the greedy ones reordered, and others
REFS = {
    "case39": {2: ("39,34", "36,30"), 3: ("39,38,34", "33,30,37")},
    "case118": {2: ("87,10", "100,25"), 3: ("54,10,87", "111,46,12")},
}


def matpower_case(doc: dict, variant: bool) -> tuple[str, str]:
    """A native case document as MATPOWER tables and a dynamics document."""
    gen_buses = {g["bus"] for g in doc["gens"]}
    kind = {b: 2 for b in gen_buses} | {doc["slack_bus"]: 3}
    bus_rows = [f" {b['id']} {kind.get(b['id'], 1)} {b['pd_mw']!r}"
                " 0 0 0 1 1 0 345 1 1.1 0.9;" for b in doc["buses"]]
    gen_rows = [
        f" {g['bus']} {g['pg_mw']!r} 0 300 -300 {g['vm_pu']!r} 100"
        f" {0 if variant and g['bus'] == OFF_GEN_BUS else 1}"
        f" {g['pg_max_mw']!r} 0;"
        for g in doc["gens"]]
    branch_rows = [
        f" {b['from']} {b['to']} 0.0 {b['x_pu']!r} 0.0 0 0 0 0 0"
        f" {0 if variant and (b['from'], b['to']) == OFF_LINE else 1} -360 360;"
        for b in doc["branches"]]
    case = "\n".join(
        ["function mpc = case39", f"mpc.baseMVA = {doc['base_mva']!r};"]
        + [f"mpc.{name} = [\n" + "\n".join(rows) + "\n];"
           for name, rows in (("bus", bus_rows), ("gen", gen_rows),
                              ("branch", branch_rows))]) + "\n"
    machines = {
        str(g["bus"]): {k: g[k] for k in ("inertia_s", "xd_prime_pu", "vm_pu")}
        for g in doc["gens"] if not (variant and g["bus"] == NO_DYN_BUS)}
    dyn = json.dumps({"base_freq_hz": doc["base_freq_hz"], "machines": machines},
                     indent=1, sort_keys=True)
    return case, dyn


def write_cases(out_dir: str) -> dict[str, str]:
    """Write every case to out_dir; returns name -> path."""
    sys.path[:0] = [os.path.join(HERE, "perfbench"), os.path.join(HERE, "tests")]
    import inputs
    from casekit import random_case_doc

    texts = {}
    for name in ("case39", "case118"):
        with open(os.path.join(HERE, "data", f"{name}.json")) as fh:
            texts[name] = fh.read()
    case39 = json.loads(texts["case39"])
    for draw in inputs.MESHED_DRAWS:
        texts[f"meshed-120-{draw}"] = json.dumps(
            inputs.meshed_case(draw), indent=1, sort_keys=True)
    case118 = inputs.load_case118(HERE)
    for name, copies, seed in (("tied-x24", 24, 1), ("tied-x24-seed2", 24, 2),
                               ("tied-x4", 4, 7), ("tied-x2", 2, 7)):
        inputs.TIED_COPIES = copies
        texts[name] = inputs.tied_case(case118, seed)
    texts["case39-strong-line"] = json.dumps(
        {**case39, "branches": case39["branches"] + [STRONG_LINE]},
        indent=1, sort_keys=True)
    big_voltage = json.loads(texts["case39"])
    big_voltage["gens"][0]["vm_pu"] = BIG_VOLTAGE
    texts["case39-big-voltage"] = json.dumps(big_voltage, indent=1,
                                             sort_keys=True)
    big_loads, big_unit = (json.loads(texts["case39"]) for _ in range(2))
    for bus in big_loads["buses"]:
        if bus["id"] in BIG_LOAD_BUSES:
            bus["pd_mw"] = BIG_MW
    for gen in big_unit["gens"]:
        if gen["bus"] == BIG_UNIT_BUS:
            gen["pg_mw"] = BIG_MW
    texts["case39-big-loads"] = json.dumps(big_loads, indent=1, sort_keys=True)
    texts["case39-big-unit"] = json.dumps(big_unit, indent=1, sort_keys=True)
    texts["case39-tiny-freq"] = json.dumps(
        {**case39, "base_freq_hz": TINY_FREQ_HZ}, indent=1, sort_keys=True)
    texts["case118-twin"] = json.dumps(
        {**case118, "branches": case118["branches"] + [TWIN_LINE]},
        indent=1, sort_keys=True)
    for seed in range(RANDOM_NETWORKS):
        rng = np.random.default_rng(seed)
        n_gens = int(rng.integers(4, 8))
        doc = random_case_doc(rng, m=int(rng.integers(n_gens + 2, 25)),
                              extra_edges=int(rng.integers(1, 12)),
                              n_gens=n_gens)
        texts[f"random-{seed}"] = json.dumps(doc, indent=1, sort_keys=True)
    texts = {f"{name}.json": text for name, text in texts.items()}
    for name, variant in (("case39-mpc", False), ("case39-mpc-variant", True)):
        texts[f"{name}.m"], texts[f"{name}.dyn.json"] = matpower_case(
            case39, variant)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for file_name, text in texts.items():
        name = file_name.removesuffix(".json")
        paths[name] = os.path.join(out_dir, file_name)
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


def argv_set(paths: dict[str, str]) -> list[list[str]]:
    named = ["case39", "case118", "meshed-120-1", "meshed-120-2", "tied-x2"]
    runs = [["run", "--case", paths[name], "--method", "both", "--xi", XI,
             "--r", str(r), "--dump-model"]
            for name in named for r in range(2, 6)]
    runs += [["refsel", "--case", paths[name], "--r", r]
             for name in named for r in ("3", "8")]
    runs += [["run", "--case", paths[f"random-{seed}"], "--method", "both",
              "--r", str(r)]
             for seed in range(RANDOM_NETWORKS) for r in range(2, 5)]
    for name in ("case39-mpc", "case39-mpc-variant"):
        case = ["--case", paths[f"{name}.m"], "--dyn", paths[f"{name}.dyn"]]
        runs += [["run", *case, "--method", "both", "--xi", MPC_XI,
                  "--r", str(r), "--dump-model"] for r in range(2, 5)]
        runs += [["refsel", *case, "--r", "3"]]
    for name, by_r in REFS.items():
        case = ["--case", paths[name]]
        runs += [["run", *case, "--method", "both", "--xi", MPC_XI,
                  "--r", str(r), "--dump-model", "--refs", refs]
                 for r, lists in by_r.items() for refs in lists]
        runs += [["run", *case, "--method", "spectral"],
                 ["run", *case, "--method", "weak-submodular",
                  "--epsilon", "1e-2"]]
        runs += [["run", *case, "--method", "both", "--format", fmt]
                 for fmt in ("csv", "table")]
    runs += [["run", "--case", paths[name], "--method", "spectral", "--r", "8"]
             for name in ("case118", "meshed-120-1", "tied-x2")]
    runs += [["run", "--case", paths["case39"], "--format", "table"],
             ["run", "--case", paths["case39"], "--method", "spectral",
              "--xi", "1e-6,1e-5", "--format", "table"]]
    runs += [["refsel", "--case", paths[name], "--r", "8"]
             for name in ("tied-x24", "tied-x24-seed2")]
    runs += [["run", "--case", paths["tied-x4"], "--method", "both", "--r", "4",
              "--xi", "0,1e-6"],
             ["run", "--case", paths["case118-twin"], "--method", "both",
              "--dump-model"]]
    case39 = ["--case", paths["case39"]]
    runs += [["refsel", *case39, "--r", "0"],
             ["run", *case39, "--r", "1", "--method", "both"],
             ["run", *case39, "--refs", "30,31"],
             ["run", *case39, "--refs", "30,30", "--r", "2"],
             ["run", *case39, "--xi=-0.0"]]
    strong = ["--case", paths["case39-strong-line"]]
    runs += [["run", *strong, "--r", "2"], ["refsel", *strong, "--r", "3"]]
    big = ["--case", paths["case39-big-voltage"]]
    runs += [["run", *big, "--r", "2"], ["refsel", *big, "--r", "3"]]
    runs += [["run", "--case", paths["case39-big-loads"], "--r", "3",
              "--xi", "0"],
             ["run", "--case", paths["case39-big-unit"], "--r", "3",
              "--xi", "1e6"]]
    tiny = ["--case", paths["case39-tiny-freq"], "--r", "3"]
    runs += [["refsel", *tiny], ["run", *tiny, "--method", "both"]]
    return runs


def capture(main, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; an exception
    out of main is exit code 1 with its last traceback line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")   # independent of the run order
        try:
            code = main(argv)
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def digest(report: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(list(report)).encode()).hexdigest()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _tree(text: str):
    """A report's stdout as a tree: its JSON, else its CSV rows by
    header, else its lines as lists of cells; numbers as floats."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    if "," in text.partition("\n")[0]:
        return [{key: _cell(value) for key, value in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return [[_cell(c) for c in line.split()] for line in text.splitlines()]


def _walk(a, b, path: str, field, found: dict) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            _walk(a.get(key), b.get(key), f"{path}.{key}",
                  key if key in DECISIONS else field, found)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{k}]", field, found)
    elif type(a) is float and type(b) is float and field is None:
        if repr(a) != repr(b):
            rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
            found["rel"] = max(found["rel"], math.inf if math.isnan(rel) else rel)
    elif type(a) is not type(b) or repr(a) != repr(b):
        found["decisions" if field else "other"].add(field or path)


def compare_reports(old, new, argv: list[str]) -> tuple[list, list, float]:
    """How two reports (exit code, stdout, stderr) of argv differ: the
    decision fields, the paths of other fields that differ other than
    by a float, and the largest relative change of any float (-1.0 if
    none changed)."""
    found = {"decisions": set(), "other": set(), "rel": -1.0}
    for name, a, b in (("exit code", old[0], new[0]),
                       ("stderr", old[2], new[2])):
        if a != b:
            found["other"].add(name)
    _walk(_tree(old[1]), _tree(new[1]), "",
          "refs" if argv[0] == "refsel" else None, found)
    return sorted(found["decisions"]), sorted(found["other"]), found["rel"]


def load_cli(root: str):
    """``gridisland.cli`` imported afresh from root's ``src/``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "gridisland"]:
        del sys.modules[name]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        from gridisland import cli
    finally:
        sys.path.remove(src)
    return cli


def env_item(text: str) -> tuple[str, str]:
    """A VAR=VALUE argument as (VAR, VALUE)."""
    name, eq, value = text.partition("=")
    if not (name and eq):
        raise argparse.ArgumentTypeError(f"expected VAR=VALUE, got {text!r}")
    return name, value


def replay(root: str) -> None:
    """Print as JSON the reports of the argv list read as JSON from stdin."""
    main = load_cli(root).main
    json.dump([capture(main, argv) for argv in json.load(sys.stdin)],
              sys.stdout)


def reports_under(env: tuple[str, str], root: str,
                  runs: list[list[str]]) -> list[tuple[int, str, str]]:
    """The reports of runs on root's src/, in a subprocess with the
    environment variable env = (VAR, VALUE) set."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--root", root,
         "--replay"],
        input=json.dumps(runs), env={**os.environ, env[0]: env[1]},
        capture_output=True, text=True, check=True)
    return [tuple(report) for report in json.loads(done.stdout)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/ is run (default: this one)")
    compare = parser.add_mutually_exclusive_group()
    compare.add_argument("--against", metavar="PARENT",
                         help="list the runs whose reports differ from those "
                              "of this checkout, and how")
    compare.add_argument("--env", metavar="VAR=VALUE", type=env_item,
                         help="list the runs whose reports differ when rerun "
                              "in a subprocess with VAR set, and how")
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cases", default=os.path.join(
        tempfile.gettempdir(), "gridisland-report-digests"),
        help="fixed directory the cases are written to")
    args = parser.parse_args()
    if args.replay:
        replay(args.root)
        return 0
    cli = load_cli(args.root)   # before the cases: casekit imports it
    runs = argv_set(write_cases(args.cases))
    if args.against is None and args.env is None:
        for argv in runs:
            print(f"{digest(capture(cli.main, argv))}  {' '.join(argv)}",
                  flush=True)
        return 0
    reports = [capture(cli.main, argv) for argv in runs]
    if args.env is None:
        before = load_cli(args.against).main
        others = [capture(before, argv) for argv in runs]
        where = f"from {args.against}"
    else:
        others = reports_under(args.env, args.root, runs)
        where = "under {}={}".format(*args.env)
    changed = 0
    for argv, old, report in zip(runs, others, reports):
        if old != report:
            changed += 1
            decisions, other, rel = compare_reports(old, report, argv)
            print(f"{' '.join(argv)}\n    decisions: {', '.join(decisions) or '-'}"
                  f"; other: {', '.join(other) or '-'}; largest relative float "
                  f"change: {'-' if rel < 0 else f'{rel:.3g}'}", flush=True)
    print(f"{changed} of {len(runs)} runs differ {where}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
