"""Command-line front end.

Subcommands::

    gridisland run     --case data/case39.json --method both --xi 1e-6
    gridisland refsel  --case data/case39.json --r 3
    gridisland compare report.json

``run`` executes the full pipeline (parse, DC power flow, coherency
model, reference selection, islanding) and writes a JSON report; ``--xi``
accepts a single weight or a comma-separated sweep list.  Reports are
fully deterministic: the same command produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .baseline import BaselineError, check_island_count, two_step_partition
from .coherency import (
    ModelError,
    build_K,
    build_model,
    inertia,
    kron_reduce,
    slow_modes,
)
from .islanding import IslandingError, check_epsilon, solve
from .metrics import MetricError, build_context, check_trade_off
from .netcase import CaseError, parse_case
from .refsel import (
    SelectionError,
    select_references_greedy,
    select_references_pivoting,
)


class UsageError(Exception):
    """Command line that argparse rejects or an --out that cannot be written."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose mistakes end in the one-line JSON error."""

    def error(self, message):
        raise UsageError(message)


KNOWN_ERRORS = (
    CaseError, ModelError, SelectionError, MetricError, IslandingError,
    BaselineError, UsageError,
)
REPORT_DIGITS = 12   # decimals every report float is rounded to
DEFAULT_R = 3        # island count when neither --r nor --refs sets it
TOO_FEW_ROWS = "comparison needs at least two method results"


def _parse_xi(text: str) -> list[float]:
    # -0.0 + 0.0 is 0.0, so --xi=-0.0 computes and reports as --xi 0 does
    try:
        return [float(tok) + 0.0 for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise MetricError(
            f"trade-off weights must be comma-separated numbers: {text!r}"
        ) from exc


def _parse_scalar(text: str, kind: type, flag: str, error: type[Exception]):
    """kind(text), or the CLI's typed error naming the flag."""
    try:
        return kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise error(f"{flag} must be {what}: {text!r}") from exc


def _parse_r(text: str | None, error: type[Exception]) -> int:
    """--r as an integer, DEFAULT_R when the flag is not given."""
    return DEFAULT_R if text is None else _parse_scalar(text, int, "--r", error)


def _check_r(r: int, error: type[Exception]) -> None:
    if r < 1:
        raise error("island count r must be at least 1")


def _parse_refs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise SelectionError(
            f"reference buses must be comma-separated bus ids: {text!r}"
        ) from exc


def _read(path: str, error: type[Exception] = CaseError) -> str:
    """The UTF-8 text of path; a file that cannot be read or decoded
    raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _check_out(path: str) -> None:
    """Reject an --out that is a directory or has no directory to live in,
    before any work is done; the file itself is written only at the end."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cannot write {path}: no such directory")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _references(case: str, dyn: str | None, r: int):
    """Parse, the DC power flow and Kron reduction of one elimination, and
    both reference selections from the slow modes."""
    net = parse_case(_read(case), _read(dyn) if dyn else None)
    op, Y = kron_reduce(net)
    K = build_K(net, op, Y)
    del Y   # not held through the eigensolve, where a run peaks in memory
    _, U = slow_modes(inertia(net), K, r)
    return net, op, select_references_greedy(U, r), select_references_pivoting(U, r)


def _selection_buses(net, greedy, pivot) -> dict:
    """Both reference selections as the bus ids of their generators."""
    gen_bus = net.gen_bus.tolist()
    return {"greedy": [gen_bus[i] for i in greedy.refs],
            "pivoting": [gen_bus[i] for i in pivot.refs]}


def _round_floats(obj):
    """Round every float so reports are stable across BLAS minutiae.

    A non-finite float has no JSON form, so it raises MetricError.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise MetricError(f"result {obj} is not finite: an input is too "
                              "large for double precision")
        return round(obj, REPORT_DIGITS)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def run(args: argparse.Namespace) -> dict:
    """The report of a parsed ``run`` command line; r = len(refs) islands,
    so --refs sets r and an explicit --r must agree with it."""
    r = _parse_r(args.r, IslandingError)
    xis = _parse_xi(args.xi)
    epsilon = _parse_scalar(args.epsilon, float, "--epsilon", IslandingError)
    bus_refs = None if args.refs is None else _parse_refs(args.refs)
    _check_r(r, IslandingError)
    if not xis:
        raise MetricError("no trade-off weight given")
    for xi in xis:
        check_trade_off(xi)
    check_epsilon(epsilon)
    if bus_refs is not None:
        if args.r is not None and r != len(bus_refs):
            raise SelectionError(
                f"--r {r} disagrees with the {len(bus_refs)} buses of --refs")
        for k, b in enumerate(bus_refs):
            if b in bus_refs[:k]:
                raise SelectionError(f"--refs names bus {b} twice")
        r = len(bus_refs)
    if args.method != "weak-submodular":
        check_island_count(r)
    if args.fmt == "table" and args.method != "both" and len(xis) < 2:
        raise MetricError(TOO_FEW_ROWS)
    # model and references are xi-independent
    net, op, greedy, pivot = _references(args.case, args.dyn, r)
    gen_bus = net.gen_bus.tolist()
    if bus_refs is not None:
        refs = []
        for b in bus_refs:
            if b not in gen_bus:
                raise SelectionError(f"no generator at bus {b}")
            refs.append(gen_bus.index(b))
    else:
        refs = list(greedy.refs)
    model = build_model(net, op, refs)

    runs = []
    split = None  # the baseline's partition is xi-independent
    for xi in xis:
        ctx = build_context(net, op, model, xi)
        methods = {}
        if args.method in ("weak-submodular", "both"):
            methods["weak-submodular"] = solve(ctx, epsilon=epsilon).as_dict()
        if args.method in ("spectral", "both"):
            if split is None:
                split = two_step_partition(net, op, model)
            sol = split.evaluate(ctx).as_dict()
            sol["recursion_order"] = "weakest-coupling-first"  # reconstruction
            methods["spectral"] = sol
        runs.append({"xi": xi, "methods": methods})

    report = {
        "config": {
            "case": args.case, "r": r, "xi": xis,
            "epsilon": epsilon, "method": args.method,
        },
        "case": {"buses": net.m, "branches": net.l, "generators": net.n},
        "refs": {**_selection_buses(net, greedy, pivot),
                 "used": [gen_bus[i] for i in refs]},
        "runs": runs,
    }
    if args.dump_model:
        report["model"] = {
            # a generator with no coupling has K_ii = -(+0.0) = -0.0;
            # + 0.0 prints it as 0.0
            "K": (model.K + 0.0).tolist(),
            "M": model.M.tolist(),
            "U": model.U.tolist(),
            "L": model.L.tolist(),
            "sigma": model.sigma_r.tolist(),
        }
    return _round_floats(report)


def _finite_number(text: str) -> float:
    """A report number; NaN, Infinity and 1e400 raise MetricError."""
    value = float(text)
    if not math.isfinite(value):
        raise MetricError(f"report holds the non-finite number {text}")
    return value


def compare(report: dict) -> str:
    """Aligned Method | J | sqrt(f) MW | H_bar table across methods."""
    try:
        rows = [
            f"{name:<16} {entry['xi']:>10.3g} {sol['J']:>10.4f} "
            f"{sol['sqrt_f_mw']:>12.1f} {sol['H_bar']:>10.4f}"
            for entry in report.get("runs", [])
            for name, sol in sorted(entry.get("methods", {}).items())
        ]
    except KeyError as exc:
        raise MetricError(f"report is missing metric {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise MetricError(f"malformed report: {exc}") from exc
    if len(rows) < 2:
        raise MetricError(TOO_FEW_ROWS)
    head = f"{'Method':<16} {'xi':>10} {'J':>10} {'sqrt_f_MW':>12} {'H_bar':>10}"
    return "\n".join([head, "-" * len(head)] + rows) + "\n"


def _to_csv(report: dict) -> str:
    import csv
    import io

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["method", "xi", "J", "sqrt_f_mw", "H_bar", "cutset"])
    for entry in report.get("runs", []):
        for name, sol in sorted(entry.get("methods", {}).items()):
            w.writerow([
                name, entry["xi"], sol["J"], sol["sqrt_f_mw"], sol["H_bar"],
                ";".join(sol["cutset"]),
            ])
    return out.getvalue()


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _to_csv(report)
    if fmt == "table":
        return compare(report)
    raise MetricError(f"unknown output format {fmt!r}")


def main(argv=None) -> int:
    parser = _Parser(prog="gridisland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--case", required=True)
    common.add_argument("--dyn", help="dynamics JSON for MATPOWER-table cases")
    common.add_argument("--r", help=f"island count (default {DEFAULT_R}, "
                        "or the count of --refs)")
    common.add_argument("--out")
    rp = sub.add_parser("run", parents=[common], help="run one or both methods")
    rp.add_argument("--xi", default="1e-6",
                    help="trade-off weight, or comma-separated sweep list")
    rp.add_argument("--epsilon", default="1e-3")
    rp.add_argument("--method", default="weak-submodular",
                    choices=["weak-submodular", "spectral", "both"])
    rp.add_argument("--refs", help="override reference buses, e.g. 39,34,38")
    rp.add_argument("--dump-model", action="store_true")
    rp.add_argument("--format", dest="fmt", default="json",
                    choices=["json", "csv", "table"])
    sub.add_parser("refsel", parents=[common],
                   help="report reference generator choices")
    cp = sub.add_parser("compare", help="render a report as a table")
    cp.add_argument("report")
    try:
        with np.errstate(all="ignore"):   # stderr holds only the JSON error
            args = parser.parse_args(argv)
            out_path = getattr(args, "out", None)
            if out_path:
                _check_out(out_path)
            if args.command == "run":
                text = _render(run(args), args.fmt)
            elif args.command == "refsel":
                r = _parse_r(args.r, SelectionError)
                _check_r(r, SelectionError)
                net, _, greedy, pivot = _references(args.case, args.dyn, r)
                text = _render(_selection_buses(net, greedy, pivot), "json")
            else:
                try:
                    report = json.loads(_read(args.report, MetricError),
                                        parse_float=_finite_number,
                                        parse_constant=_finite_number)
                except (ValueError, RecursionError) as exc:
                    raise MetricError(f"report is not JSON: {exc}") from exc
                text = compare(report)
            if out_path:
                _write(out_path, text)
            else:
                sys.stdout.write(text)
    except KNOWN_ERRORS as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
