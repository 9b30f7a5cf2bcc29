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
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .baseline import BaselineError, two_step_partition
from .coherency import (
    ModelError,
    build_K,
    build_model,
    inertia_matrix,
    kron_reduce,
    slow_modes,
)
from .islanding import IslandingError, solve
from .metrics import MetricError, build_context
from .netcase import CaseError, dc_power_flow, parse_case
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


@dataclass
class RunConfig:
    case: str
    dyn: str | None = None
    r: int = 3
    xi: list[float] = field(default_factory=lambda: [1e-6])
    epsilon: float = 1e-3
    method: str = "weak-submodular"
    refs: list[int] | None = None     # bus ids
    dump_model: bool = False

    def validate(self) -> None:
        if self.r < 1:
            raise IslandingError("island count r must be at least 1")
        if not self.xi:
            raise MetricError("no trade-off weight given")
        if not all(0 <= x < float("inf") for x in self.xi):
            raise MetricError("trade-off weight must be finite and nonnegative")
        if not 0 < self.epsilon < 1:
            raise IslandingError("epsilon must lie in (0, 1)")
        if self.method not in ("weak-submodular", "spectral", "both"):
            raise IslandingError(f"unknown method {self.method!r}")


def _parse_xi(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
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


def _parse_refs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise SelectionError(
            f"reference buses must be comma-separated bus ids: {text!r}"
        ) from exc


def _read(path: str, error: type[Exception] = CaseError) -> str:
    """The UTF-8 text of path; undecodable bytes raise `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CaseError(f"cannot read {path}: {exc}") from exc
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
    """Parse, DC power flow, and both reference selections from the slow modes."""
    net = parse_case(_read(case), _read(dyn) if dyn else None)
    op = dc_power_flow(net)
    _, U = slow_modes(inertia_matrix(net), build_K(net, op, kron_reduce(net)), r)
    return net, op, select_references_greedy(U, r), select_references_pivoting(U, r)


def _round_floats(obj):
    """Round every float so reports are stable across BLAS minutiae."""
    if isinstance(obj, float):
        return round(obj, REPORT_DIGITS)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def run(config: RunConfig) -> dict:
    config.validate()
    # model and references are xi-independent
    net, op, greedy, pivot = _references(config.case, config.dyn, config.r)
    gen_bus = [g.bus for g in net.gens]
    if config.refs is not None:
        refs = []
        for b in config.refs:
            if b not in gen_bus:
                raise SelectionError(f"no generator at bus {b}")
            refs.append(gen_bus.index(b))
        if len(set(refs)) != config.r:
            raise SelectionError(f"need {config.r} distinct reference buses")
    else:
        refs = list(greedy.refs)
    model = build_model(net, op, config.r, refs)

    runs = []
    split = None  # the baseline's partition is xi-independent
    for xi in config.xi:
        ctx = build_context(net, op, model, xi)
        methods = {}
        if config.method in ("weak-submodular", "both"):
            methods["weak-submodular"] = solve(
                ctx, epsilon=config.epsilon).as_dict()
        if config.method in ("spectral", "both"):
            if split is None:
                split = two_step_partition(net, op, model, config.r)
            sol = split.evaluate(ctx).as_dict()
            sol["recursion_order"] = "weakest-coupling-first"  # reconstruction
            methods["spectral"] = sol
        runs.append({"xi": xi, "methods": methods})

    report = {
        "config": {
            "case": config.case, "r": config.r, "xi": config.xi,
            "epsilon": config.epsilon, "method": config.method,
        },
        "case": {"buses": net.m, "branches": net.l, "generators": net.n},
        "refs": {
            "greedy": [gen_bus[i] for i in greedy.refs],
            "pivoting": [gen_bus[i] for i in pivot.refs],
            "used": [gen_bus[i] for i in refs],
        },
        "runs": runs,
    }
    if config.dump_model:
        report["model"] = {
            "K": model.K.tolist(),
            "M": np.diag(model.M).tolist(),
            "U": model.U.tolist(),
            "L": model.L.tolist(),
            "sigma": model.sigma_r.tolist(),
        }
    return _round_floats(report)


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
        raise MetricError("comparison needs at least two method results")
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


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True)
    p.add_argument("--dyn", help="dynamics JSON for MATPOWER-table cases")
    p.add_argument("--r", default="3")
    p.add_argument("--xi", default="1e-6",
                   help="trade-off weight, or comma-separated sweep list")
    p.add_argument("--epsilon", default="1e-3")
    p.add_argument("--method", default="weak-submodular",
                   choices=["weak-submodular", "spectral", "both"])
    p.add_argument("--refs", help="override reference buses, e.g. 39,34,38")
    p.add_argument("--out")
    p.add_argument("--dump-model", action="store_true")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=["json", "csv", "table"])


def main(argv=None) -> int:
    parser = _Parser(prog="gridisland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="run one or both methods"))
    rp = sub.add_parser("refsel", help="report reference generator choices")
    rp.add_argument("--case", required=True)
    rp.add_argument("--dyn")
    rp.add_argument("--r", default="3")
    rp.add_argument("--out")
    cp = sub.add_parser("compare", help="render a report as a table")
    cp.add_argument("report")
    try:
        args = parser.parse_args(argv)
        out_path = getattr(args, "out", None)
        if out_path:
            _check_out(out_path)
        if args.command == "run":
            config = RunConfig(
                case=args.case, dyn=args.dyn,
                r=_parse_scalar(args.r, int, "--r", IslandingError),
                xi=_parse_xi(args.xi),
                epsilon=_parse_scalar(args.epsilon, float, "--epsilon",
                                      IslandingError),
                method=args.method,
                refs=None if args.refs is None else _parse_refs(args.refs),
                dump_model=args.dump_model,
            )
            text = _render(run(config), args.fmt)
        elif args.command == "refsel":
            r = _parse_scalar(args.r, int, "--r", SelectionError)
            net, _, greedy, pivot = _references(args.case, args.dyn, r)
            gen_bus = [g.bus for g in net.gens]
            text = _render({"greedy": [gen_bus[i] for i in greedy.refs],
                            "pivoting": [gen_bus[i] for i in pivot.refs]}, "json")
        else:
            try:
                report = json.loads(_read(args.report, MetricError))
            except ValueError as exc:
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
