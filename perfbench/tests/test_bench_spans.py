import os

import pytest

import spans
import worker
from gridisland import cli, islanding, metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CASE39 = os.path.join(ROOT, "data", "case39.json")
ARGVS = [
    ["run", "--case", CASE39, "--method", "both", "--xi", "1e-7,1e-6"],
    ["refsel", "--case", CASE39, "--r", "3"],
]


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_rebinds_every_imported_copy(tracer):
    assert cli.solve is islanding.solve
    assert cli.solve.__wrapped__ is not None
    assert islanding.J is metrics.J and hasattr(metrics.J, "__wrapped__")
    assert hasattr(metrics.IncrementalEvaluator.add, "__wrapped__")
    tracer.uninstall()
    assert not hasattr(cli.solve, "__wrapped__")
    assert not hasattr(islanding.J, "__wrapped__")
    assert not hasattr(metrics.IncrementalEvaluator.gains, "__wrapped__")


def test_tracing_leaves_reports_byte_identical():
    plain = [worker.call(cli.main, argv) for argv in ARGVS]
    t = spans.Tracer()
    t.install()
    try:
        traced = [t.operation(k, worker.call, cli.main, argv)
                  for k, argv in enumerate(ARGVS)]
    finally:
        t.uninstall()
    assert all(rc == 0 and err is None for rc, _, err in plain)
    assert traced == plain
    assert {s[3] for s in t.spans} >= {
        "cli.main", "cli.run", "islanding.local_search",
        "baseline.generator_bipartition", "refsel.select_references_greedy"}


def test_self_times_sum_to_operation_wall_time(tracer):
    for k, argv in enumerate(ARGVS):
        tracer.operation(k, worker.call, cli.main, argv)
    own = spans.self_times(tracer.spans)
    assert all(v >= 0 for v in own.values())
    for k in range(len(ARGVS)):
        ops = [s for s in tracer.spans if s[0] == k]
        (root,) = [s for s in ops if s[3] == spans.ROOT]
        assert sum(own[s[1]] for s in ops) == pytest.approx(
            root[5] - root[4], rel=1e-9, abs=1e-12)


def test_work_counts_and_errors(tracer, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = tracer.operation(0, worker.call, cli.main, ARGVS[0])
    assert rc == 0
    rc, _, _ = tracer.operation(1, worker.call, cli.main,
                                ["refsel", "--case", str(bad)])
    assert rc == 1
    out = spans.layer_metrics(tracer.spans, tracer.counts, 2)
    # one run prelude: reference selection and build_model each reduce
    assert out["coherency.kron_reduce.calls"] == (2 / 2, "count")
    assert out["metrics.build_context.calls"] == (2 / 2, "count")
    # the malformed case raises out of netcase and is caught by the cli
    assert out["netcase.errors"] == (1 / 2, "count")
    assert out["cli.errors"] == (0.0, "count")
    rounds = out["islanding.greedy_select.rounds"][0] * 2
    accept = out["islanding.greedy_select.accept_ratio"][0]
    assert accept * rounds == pytest.approx(2 * (39 - 3))


def test_worker_refuses_without_thread_pin(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit, match="OPENBLAS_NUM_THREADS"):
        worker.run({})


def test_names_a_refactor_removed_are_skipped(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "islanding.no_such_function", None)
    monkeypatch.setitem(spans.SPANS, "no_such_module.f", None)
    t = spans.Tracer()
    t.install()
    try:
        rc, _, _ = t.operation(0, worker.call, cli.main, ARGVS[1])
    finally:
        t.uninstall()
    assert rc == 0
    assert t.missing == ["islanding.no_such_function", "no_such_module.f"]
    out = spans.layer_metrics(t.spans, t.counts, 1)
    assert out["islanding.no_such_function.self_s"] == (0.0, "s")
