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
  with ``--method both``.

The cases come from this checkout (``data/``, ``perfbench/inputs.py``
read-only, ``tests/casekit.py``) and are written to one fixed directory,
so every checkout reports the same ``config.case`` string; the program
run is the one under ``--root``'s ``src/``.  To compare a change with
its parent::

    python scripts/report_digests.py --root PARENT_CHECKOUT > old.txt
    python scripts/report_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
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


def write_cases(out_dir: str) -> dict[str, str]:
    """Write every case to out_dir; returns name -> path."""
    sys.path[:0] = [os.path.join(HERE, "perfbench"), os.path.join(HERE, "tests")]
    import inputs
    from casekit import random_case_doc

    texts = {}
    for name in ("case39", "case118"):
        with open(os.path.join(HERE, "data", f"{name}.json")) as fh:
            texts[name] = fh.read()
    for draw in inputs.MESHED_DRAWS:
        texts[f"meshed-120-{draw}"] = json.dumps(
            inputs.meshed_case(draw), indent=1, sort_keys=True)
    inputs.TIED_COPIES = 2
    texts["tied-x2"] = inputs.tied_case(inputs.load_case118(HERE), 7)
    for seed in range(RANDOM_NETWORKS):
        rng = np.random.default_rng(seed)
        n_gens = int(rng.integers(4, 8))
        doc = random_case_doc(rng, m=int(rng.integers(n_gens + 2, 25)),
                              extra_edges=int(rng.integers(1, 12)),
                              n_gens=n_gens)
        texts[f"random-{seed}"] = json.dumps(doc, indent=1, sort_keys=True)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(out_dir, f"{name}.json")
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
    return runs


def digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")   # independent of the run order
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--cases", default=os.path.join(
        tempfile.gettempdir(), "gridisland-report-digests"),
        help="fixed directory the cases are written to")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    paths = write_cases(args.cases)
    from gridisland import cli

    for argv in argv_set(paths):
        print(f"{digest(cli.main, argv)}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
