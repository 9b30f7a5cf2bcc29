"""One benchmark run: a closed loop over gridisland.cli.main in this process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the argv of each operation in one cycle, a warm-up argv, the
measuring time, whether to trace, and where to write the results.  One
client sends the next operation only when the previous one has
returned; whole cycles run until the measuring time is used up, so
every input runs equally often.  Reports are captured, not checked:
checking happens in the parent process, outside the timed region.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Threads the BLAS numpy links will use, where the library says."""
    import numpy.linalg._umath_linalg as lapack

    lib = ctypes.CDLL(lapack.__file__)
    for name in THREAD_QUERIES:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "pins": {k: os.environ.get(k) for k in PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def call(main, argv) -> tuple[object, str, str | None]:
    """One operation: exit code, captured report, and any escaped error."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:   # argparse rejected the argv
        return exc.code, buf.getvalue(), f"SystemExit({exc.code})"
    except Exception:   # a crash fails this operation, not the run
        return None, buf.getvalue(), traceback.format_exc()
    return rc, buf.getvalue(), None


def run(spec: dict) -> dict:
    missing = [k for k in PINS if os.environ.get(k) != "1"]
    if missing:
        raise SystemExit(f"refusing to run: {', '.join(missing)} not pinned to 1")
    from gridisland import cli

    env = environment()
    if env["blas_threads"] not in (None, 1):
        raise SystemExit(f"refusing to run: BLAS uses {env['blas_threads']} threads")
    call(cli.main, spec["warmup"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < spec["seconds"]:
        for k, argv in enumerate(spec["argvs"]):
            t0 = perf_counter()
            if tracer:
                rc, text, err = tracer.operation(len(ops), call, cli.main, argv)
            else:
                rc, text, err = call(cli.main, argv)
            ops.append({"input": k, "seconds": perf_counter() - t0,
                        "rc": rc, "error": err, "report": text})
    wall = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        with open(spec["spans"], "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(["span", *s]) + "\n")
            for (op, name, where), k in tracer.counts.items():
                fh.write(json.dumps(["count", op, name, where, k]) + "\n")
    return {"env": env, "ops": ops, "wall_s": wall, "peak_rss_mb": peak_kb / 1024,
            "untraced": tracer.missing if tracer else []}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
