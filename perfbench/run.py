#!/usr/bin/env python3
"""gridisland benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

Run from the repository root.  Each run writes seeded case files under
.perfbench_out/, times a fresh interpreter's import of gridisland.cli,
then runs the workload in a worker process (perfbench/worker.py) with
BLAS threads pinned to 1, and checks every report with perfbench/oracle.py.
It prints each metric by name with unit and sample count, the
environment, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end_to_end metrics of
BENCHMARK.json untraced, its per_layer metrics traced.  The exit code is
1 if any output check failed and 2 if the run could not be made.
See perfbench/README.md.
"""

from __future__ import annotations

import os

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _pin in PINS:   # before numpy loads, here and in every child
    os.environ[_pin] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

# workload -> (argv with {case} for the input file, warm-up argv)
WORKLOADS = {
    "case118-sweep": (
        ["run", "--case", "{case}", "--r", "3", "--method", "both",
         "--xi", "1e-8,1e-7,1e-6,1e-5"],
        ["run", "--case", "data/case39.json", "--method", "both"]),
    "meshed-120": (
        ["run", "--case", "{case}", "--r", "3", "--xi", "1e-6",
         "--method", "weak-submodular"],
        ["run", "--case", "data/case39.json", "--method", "both"]),
    "tied118-refsel": (
        ["refsel", "--case", "{case}", "--r", "8"],
        ["refsel", "--case", "data/case39.json", "--r", "3"]),
}


class BenchError(Exception):
    """The run could not be made; no result is reported."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), HERE, env.get("PYTHONPATH"))
        if p)
    return env


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters importing gridisland.cli."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import gridisland.cli"], cwd=ROOT,
            env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cannot import gridisland.cli:\n{proc.stderr}")
    return out


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check(kind: str, argv: list[str], case_text: str, report: str) -> list[str]:
    net = oracle.Network(case_text)
    try:
        doc = json.loads(report)
        r = int(flag(argv, "--r"))
        if kind == "refsel":
            return oracle.check_refsel(net, doc, r)
        method = flag(argv, "--method")
        methods = ["weak-submodular", "spectral"] if method == "both" else [method]
        xis = [float(x) for x in flag(argv, "--xi").split(",")]
        return oracle.check_run(net, doc, r, xis, methods)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    template, warmup = WORKLOADS[name]
    work = os.path.join(OUT, name)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    texts = inputs.case_texts(name, seed, ROOT)
    argvs = []
    for k, text in enumerate(texts):
        path = os.path.join(work, f"case{k}.json")
        with open(os.path.join(ROOT, path), "w") as fh:
            fh.write(text)
        argvs.append([a.replace("{case}", path) for a in template])
    setup = [] if trace else setup_seconds()

    spec = {"argvs": argvs, "warmup": warmup, "seconds": seconds,
            "trace": trace, "out": os.path.join(work, "result.json"),
            "spans": os.path.join(work, "spans.jsonl")}
    spec_path = os.path.join(ROOT, work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    with open(os.path.join(ROOT, spec["out"])) as fh:
        res = json.load(fh)

    # output checks, outside the timed region; equal reports check equal
    kind = template[0]
    first: dict[int, str] = {}
    verdict: dict[tuple[int, str], list[str]] = {}
    problems = []
    failed = 0
    J = []
    for i, op in enumerate(res["ops"]):
        k, text = op["input"], op["report"]
        if op["rc"] != 0 or op["error"]:
            bad = [f"exit {op['rc']} {op['error'] or ''}"]
        elif text != first.setdefault(k, text):
            bad = [f"report differs from input {k}'s first report"]
        else:
            if (k, text) not in verdict:
                verdict[(k, text)] = check(kind, argvs[k], texts[k], text)
            bad = verdict[(k, text)]
        problems += [f"op {i}: {p}" for p in bad]
        failed += bool(bad)
        if not bad and kind == "run":
            J += [sol["J"] for entry in json.loads(text)["runs"]
                  for m, sol in entry["methods"].items()
                  if m == "weak-submodular"]

    times = [op["seconds"] for op in res["ops"]]
    n = len(times)
    values = {
        "op_s.p50": (statistics.median(times), "s", n),
        "ops_per_s": ((n - failed) / res["wall_s"], "1/s", n),
        "J_mean": (statistics.fmean(J) if J else None, "1", len(J)),
        "failed_ratio": (failed / n, "failed/attempted", n),
    }
    if trace:
        span_rows, counts = [], {}
        with open(os.path.join(ROOT, spec["spans"])) as fh:
            for line in fh:
                row = json.loads(line)
                if row[0] == "span":
                    span_rows.append(tuple(row[1:]))
                else:
                    counts[tuple(row[1:4])] = row[4]
        for key, (v, unit) in spans.layer_metrics(span_rows, counts, n).items():
            values[key] = (v, unit, n)
        values["trace.op_s.p50"] = values["op_s.p50"]
        values["islanding.J_mean"] = (
            values["J_mean"][0] or 0.0, "1", len(J))
    else:
        values["setup_s"] = (statistics.median(setup), "s", len(setup))
        values["peak_rss_mb"] = (res["peak_rss_mb"], "MB", 1)
    return {"workload": name, "seed": seed, "trace": trace,
            "inputs": [inputs.case_shape(t) for t in texts],
            "env": res["env"], "values": values, "problems": problems,
            "untraced": res["untraced"], "attempted": n, "failed": failed,
            "wall_s": res["wall_s"]}


def print_run(out: dict) -> None:
    print(f"== {out['workload']} seed={out['seed']} "
          f"trace={int(out['trace'])} wall={out['wall_s']:.2f}s")
    for k, shape in enumerate(out["inputs"]):
        print(f"   input {k}: m={shape['m']} l={shape['l']} n={shape['n']} "
              f"bytes={shape['bytes']}")
    for name, (value, unit, count) in out["values"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:<48} {shown:>14} {unit:<16} (n={count})")
    if out["untraced"]:
        print(f"   not in the program, so not traced: {out['untraced']}")
    for p in out["problems"][:20]:
        print(f"   CHECK FAILED {p}")
    print(f"   env {json.dumps(out['env'], sort_keys=True)}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(out: dict, spec: dict, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json names for this run, with units."""
    wanted = spec["per_layer"] if out["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit, _ = out["values"][m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[prefix + m["name"]] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/gridisland/cli.py", "data/case118.json",
                           "data/case39.json", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a gridisland checkout: missing {missing}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, seconds,
                               bool(args.trace))
            print_run(out)
            result = {"correct": not out["problems"],
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": emit(out, spec)}
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for name in WORKLOADS:
                plain = run_workload(name, args.seed, seconds, False)
                traced = run_workload(name, args.seed, seconds, True)
                for out in (plain, traced):
                    print_run(out)
                    result["correct"] &= not out["problems"]
                    result["attempted"] += out["attempted"]
                    result["failed"] += out["failed"]
                    result["metrics"].update(emit(out, spec, f"{name}/"))
                base = plain["values"]["op_s.p50"][0]
                over = traced["values"]["op_s.p50"][0]
                print(f"== {name} tracing overhead: op_s.p50 {over:.4g} s "
                      f"traced vs {base:.4g} s untraced "
                      f"({100 * (over / base - 1):+.1f}%)")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
