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
import sys
from dataclasses import dataclass, field

import numpy as np

from .baseline import BaselineError, two_step_islanding
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

KNOWN_ERRORS = (
    CaseError, ModelError, SelectionError, MetricError, IslandingError,
    BaselineError,
)


@dataclass
class RunConfig:
    case: str
    dyn: str | None = None
    r: int = 3
    xi: list[float] = field(default_factory=lambda: [1e-6])
    epsilon: float = 1e-3
    method: str = "weak-submodular"
    refs: list[int] | None = None     # bus ids
    out: str | None = None
    dump_model: bool = False
    fmt: str = "json"

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


def _parse_refs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise SelectionError(
            f"reference buses must be comma-separated bus ids: {text!r}"
        ) from exc


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CaseError(f"cannot read {path}: {exc}") from exc


def _round_floats(obj, digits: int = 12):
    """Round every float so reports are stable across BLAS minutiae."""
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def run(config: RunConfig) -> dict:
    config.validate()
    net = parse_case(_read(config.case),
                     _read(config.dyn) if config.dyn else None)
    op = dc_power_flow(net)

    # model and references are xi-independent
    _, U = slow_modes(
        inertia_matrix(net), build_K(net, op, kron_reduce(net, op)), config.r
    )
    greedy = select_references_greedy(U, config.r)
    pivot = select_references_pivoting(U, config.r)
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
    for xi in config.xi:
        ctx = build_context(net, op, model, xi)
        methods = {}
        if config.method in ("weak-submodular", "both"):
            methods["weak-submodular"] = solve(
                ctx, net, model, epsilon=config.epsilon
            ).as_dict()
        if config.method in ("spectral", "both"):
            sol = two_step_islanding(net, op, model, ctx, config.r).as_dict()
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
    rows = []
    for entry in report.get("runs", []):
        for name, sol in sorted(entry.get("methods", {}).items()):
            try:
                rows.append((name, entry["xi"], sol["J"],
                             sol["sqrt_f_mw"], sol["H_bar"]))
            except KeyError as exc:
                raise MetricError(f"report is missing metric {exc}") from exc
    if len(rows) < 2:
        raise MetricError("comparison needs at least two method results")
    head = f"{'Method':<16} {'xi':>10} {'J':>10} {'sqrt_f_MW':>12} {'H_bar':>10}"
    lines = [head, "-" * len(head)]
    for name, xi, jv, sf, hb in rows:
        lines.append(f"{name:<16} {xi:>10.3g} {jv:>10.4f} {sf:>12.1f} {hb:>10.4f}")
    return "\n".join(lines) + "\n"


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
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--xi", default="1e-6",
                   help="trade-off weight, or comma-separated sweep list")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--method", default="weak-submodular",
                   choices=["weak-submodular", "spectral", "both"])
    p.add_argument("--refs", help="override reference buses, e.g. 39,34,38")
    p.add_argument("--out")
    p.add_argument("--dump-model", action="store_true")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=["json", "csv", "table"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gridisland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="run one or both methods"))
    rp = sub.add_parser("refsel", help="report reference generator choices")
    rp.add_argument("--case", required=True)
    rp.add_argument("--dyn")
    rp.add_argument("--r", type=int, default=3)
    rp.add_argument("--out")
    cp = sub.add_parser("compare", help="render a report as a table")
    cp.add_argument("report")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = RunConfig(
                case=args.case, dyn=args.dyn, r=args.r,
                xi=_parse_xi(args.xi), epsilon=args.epsilon, method=args.method,
                refs=_parse_refs(args.refs) if args.refs else None,
                out=args.out, dump_model=args.dump_model, fmt=args.fmt,
            )
            text = _render(run(config), config.fmt)
            out_path = config.out
        elif args.command == "refsel":
            net = parse_case(_read(args.case),
                             _read(args.dyn) if args.dyn else None)
            op = dc_power_flow(net)
            _, U = slow_modes(
                inertia_matrix(net),
                build_K(net, op, kron_reduce(net, op)), args.r,
            )
            gen_bus = [g.bus for g in net.gens]
            doc = {
                "greedy": [gen_bus[i]
                           for i in select_references_greedy(U, args.r).refs],
                "pivoting": [gen_bus[i]
                             for i in select_references_pivoting(U, args.r).refs],
            }
            text = json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n"
            out_path = args.out
        else:
            text = compare(json.loads(_read(args.report)))
            out_path = None
    except KNOWN_ERRORS as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1

    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
