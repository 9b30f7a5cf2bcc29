"""End-to-end acceptance gate.

Each test prints a single ``[criterion N] PASS/FAIL`` line and then
asserts.  Tolerances and runtime budgets are pinned; benchmark target
values for the 39/118-bus systems come from published results for these
test cases and are reproduced here as fixed constants.  The published
39-bus sqrt_f and H_bar were computed from a dispatch and machine data
that the bundled ``data/case39.json`` does not carry, so they are checked
only on ``data/case39_published.json`` when that file is present.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gridisland.islanding import greedy_select, local_search, solve
from gridisland.baseline import two_step_partition
from gridisland.metrics import f, island_labels
from gridisland.refsel import (
    log_gramian,
    select_references_greedy,
    select_references_pivoting,
)

from casekit import DATA, load_case, pipeline, random_network
from constrained_oracle import F, H_i_constrained, h_i
from matroid_oracle import (
    check_greedy_bound,
    lambda_min_C,
    local_search_iteration_cap,
    random_basis,
    submodularity_ratio_min,
)

CHOSEN_XI = 1e-6


def report(num, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {word} {detail}".rstrip())
    return ok


def test_criterion_1_structural_fidelity(case39, case118):
    start = time.monotonic()
    rng = np.random.default_rng(20260823)
    problems = [(case39, 3), (case118, 3)]
    for _ in range(200):
        r = int(rng.integers(2, 4))
        problems.append(
            (random_network(rng, m=int(rng.integers(r + 2, 31)),
                            extra_edges=int(rng.integers(0, 8)), n_gens=r), r))
    bad = 0
    for net, r in problems:
        op, model, ctx = pipeline(net, r=r, xi=CHOSEN_XI)
        sol = solve(ctx)
        island_of = {b: k for k, isl in enumerate(sol.islands) for b in isl}
        ok = (
            len(sol.kept) == net.m - r
            and len(sol.islands) == r
            and sorted(b for isl in sol.islands for b in isl)
            == sorted(net.bus_ids.tolist())
            and all(
                sum(1 for i in ctx.refs
                    if island_of[int(net.gen_bus[i])] == k) == 1
                for k in range(r))
        )
        bad += not ok
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60.0
    assert report(1, ok, f"({len(problems)} instances, {elapsed:.1f}s)"), (
        f"{bad} structural violations, elapsed {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    failures = []

    # closed form for the squared imbalance distance on spanning forests
    for _ in range(20):
        net = random_network(rng, m=int(rng.integers(4, 12)),
                             extra_edges=int(rng.integers(0, 4)))
        op, model, ctx = pipeline(net, r=3, xi=0.0)
        S = random_basis(rng, net, ctx)
        labels = island_labels(ctx, S)
        expect = sum(
            np.count_nonzero(labels == k)
            * float(np.mean(ctx.b0[labels == k])) ** 2
            for k in range(3))
        if abs(f(ctx, S) - expect) > 1e-9 * max(1.0, expect):
            failures.append("forest closed form")

    # relaxed metrics lower-bound the constrained ones
    for _ in range(100):
        net = random_network(rng, m=int(rng.integers(5, 10)),
                             extra_edges=int(rng.integers(0, 3)))
        op, model, ctx = pipeline(net, r=3, xi=CHOSEN_XI)
        S = random_basis(rng, net, ctx)
        if f(ctx, S) > F(ctx, S) + 1e-9:
            failures.append("f > F")
        for i in range(net.n):
            if h_i(ctx, S, i) > H_i_constrained(ctx, S, i, model) + 1e-9:
                failures.append("h > H")

    # enumerated submodularity ratio of the gain function vs its bound
    for _ in range(6):
        net = random_network(rng, m=5, extra_edges=int(rng.integers(0, 3)),
                             n_gens=2)
        op, model, ctx = pipeline(net, r=2, xi=1e-7)
        if submodularity_ratio_min(ctx) < lambda_min_C(ctx) - 1e-9:
            failures.append("submodularity ratio bound")

    # diminishing log-det gains for reference selection, 500 random bases
    for _ in range(500):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(2, min(n, 4)))
        U = rng.normal(size=(n, r))
        rows = range(n)
        sets = [c for k in range(r) for c in itertools.combinations(rows, k)]
        for small in sets:
            for big in sets:
                if not (set(small) <= set(big)) or len(big) + 1 > r:
                    continue
                for v in rows:
                    if v in big:
                        continue
                    g_small = (log_gramian(U, list(small) + [v])
                               - log_gramian(U, small))
                    g_big = (log_gramian(U, list(big) + [v])
                             - log_gramian(U, big))
                    if g_big > g_small + 1e-9:
                        failures.append("log-det diminishing returns")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    assert report(2, ok, f"({elapsed:.1f}s)"), (
        f"oracle mismatches: {sorted(set(failures))}, elapsed {elapsed:.1f}s")


def test_criterion_3_reference_selection(pipe39, pipe118, case39, case118):
    _, model39, _ = pipe39
    _, model118, _ = pipe118
    g39 = select_references_greedy(model39.U, 3).refs
    p39 = select_references_pivoting(model39.U, 3).refs
    g118 = select_references_greedy(model118.U, 3).refs
    p118 = select_references_pivoting(model118.U, 3).refs
    buses39 = {int(case39.gen_bus[i]) for i in g39}
    buses118 = {int(case118.gen_bus[i]) for i in g118}
    ok = (
        buses39 == {39, 34, 38}          # generators G1, G5, G9
        and buses118 == {10, 54, 87}
        and set(g39) == set(p39)
        and set(g118) == set(p118)
    )
    assert report(3, ok, f"(39-bus {sorted(buses39)}, "
                         f"118-bus {sorted(buses118)})"), (
        f"39-bus greedy {sorted(buses39)} pivot "
        f"{sorted(int(case39.gen_bus[i]) for i in p39)}; 118-bus greedy "
        f"{sorted(buses118)} pivot "
        f"{sorted(int(case118.gen_bus[i]) for i in p118)}")


TARGET_CUT = {"1-2", "3-4", "4-5", "10-11", "12-13", "16-17"}
TARGET_GROUPS = [{39, 31}, {32, 33, 34, 35, 36}, {30, 37, 38}]
TARGET_SQRT_F = 241.1
TARGET_H_BAR = 1.4237
PUBLISHED_CASE = "case39_published.json"
PUBLISHED_PATH = os.path.join(DATA, PUBLISHED_CASE)
XI_GRID = np.geomspace(1e-8, 1e-5, 25)


def sweep_case39(net):
    """Solve ``net`` at r=3 for every xi in ``XI_GRID``.

    Returns ``(hits, best, lowest_h)``. ``hits`` lists ``(xi, sol)`` for
    the solutions whose cutset is ``TARGET_CUT`` and whose generator
    groups include every ``TARGET_GROUPS`` entry. ``best`` is
    ``(xi, overlap, cutset, sol)`` for the first largest overlap with
    ``TARGET_CUT``; ``lowest_h`` is ``(xi, groups, sol)`` for the first
    lowest ``H_bar``.
    """
    hits = []
    best = None
    lowest_h = None
    for xi in XI_GRID:
        _, model, ctx = pipeline(net, r=3, xi=float(xi))
        sol = solve(ctx)
        groups = [set(int(net.gen_bus[i]) for i in grp)
                  for grp in sol.generator_groups]
        overlap = len(set(sol.cutset) & TARGET_CUT)
        if best is None or overlap > best[1]:
            best = (xi, overlap, sorted(sol.cutset), sol)
        if lowest_h is None or sol.H_bar < lowest_h[2].H_bar:
            lowest_h = (xi, sorted(sorted(g) for g in groups), sol)
        if set(sol.cutset) == TARGET_CUT and all(
                g in groups for g in TARGET_GROUPS):
            hits.append((xi, sol))
    return hits, best, lowest_h


def sweep_summary(hits, best, lowest_h):
    """Measured values next to the targets, for report and failure lines."""
    xi, sol = hits[0] if hits else (best[0], best[3])
    return (
        f"xi={xi:.2e} sqrt_f={sol.sqrt_f_mw:.1f} (target {TARGET_SQRT_F}) "
        f"H_bar={sol.H_bar:.4f} (target {TARGET_H_BAR}); closest cutset "
        f"overlap {best[1]}/6 at xi={best[0]:.2e} with cutset {best[2]}; "
        f"lowest H_bar in the sweep {lowest_h[2].H_bar:.4f} at "
        f"xi={lowest_h[0]:.2e} with groups {lowest_h[1]}")


def test_criterion_4_case39_reproduction(case39):
    start = time.monotonic()
    hits, best, lowest_h = sweep_case39(case39)
    elapsed = time.monotonic() - start
    summary = sweep_summary(hits, best, lowest_h)
    ok = bool(hits)
    assert report(4, ok, f"({summary}, {elapsed:.1f}s)"), (
        "39-bus benchmark structure not reproduced: no xi in [1e-8, 1e-5] "
        f"gives cutset {sorted(TARGET_CUT)} with generator groups "
        f"{[sorted(g) for g in TARGET_GROUPS]}; {summary}. sqrt_f and "
        "H_bar are reported here only: the bundled case carries the "
        "MATPOWER dispatch and reconstructed machine data, not the inputs "
        "the published values came from. test_criterion_4_published_values "
        f"checks them on data/{PUBLISHED_CASE}.")


@pytest.mark.skipif(
    not os.path.exists(PUBLISHED_PATH),
    reason=f"data/{PUBLISHED_CASE} is absent: the published sqrt_f and "
           "H_bar need that benchmark's dispatch and machine data, which "
           "the repository does not hold")
def test_criterion_4_published_values():
    net = load_case(PUBLISHED_CASE)
    start = time.monotonic()
    hits, best, lowest_h = sweep_case39(net)
    elapsed = time.monotonic() - start
    summary = sweep_summary(hits, best, lowest_h)
    ok = False
    if hits:
        sol = hits[0][1]
        f_ok = abs(sol.sqrt_f_mw - TARGET_SQRT_F) <= 0.15 * TARGET_SQRT_F
        h_ok = abs(sol.H_bar - TARGET_H_BAR) <= 0.15 * TARGET_H_BAR
        ok = f_ok and h_ok
    assert report("4 values", ok, f"({summary}, {elapsed:.1f}s)"), (
        f"39-bus published values not reproduced on data/{PUBLISHED_CASE}"
        f" with 15% tolerance: {summary}"
        + ("" if hits else "; the target cutset and groups are not "
                           "reproduced at any xi in [1e-8, 1e-5]"))


def test_criterion_5_dominance(case39, case118):
    results = {}
    for name, net in (("39", case39), ("118", case118)):
        op, model, ctx = pipeline(net, r=3, xi=CHOSEN_XI)
        prop = solve(ctx)
        spec = two_step_partition(net, op, model).evaluate(ctx)
        results[name] = (prop, spec)
    ok = True
    parts = []
    for name, (prop, spec) in results.items():
        dom = (prop.J <= spec.J + 1e-12
               and prop.sqrt_f_mw < spec.sqrt_f_mw)
        ok &= dom
        parts.append(f"{name}-bus J {prop.J:.4f}<={spec.J:.4f} "
                     f"sqrt_f {prop.sqrt_f_mw:.1f}<{spec.sqrt_f_mw:.1f}")
    prop39, spec39 = results["39"]
    reduction = 1.0 - prop39.sqrt_f_mw / spec39.sqrt_f_mw
    ok &= reduction >= 0.20
    parts.append(f"39-bus imbalance reduction {reduction:.0%}")
    assert report(5, ok, "(" + "; ".join(parts) + ")"), "; ".join(parts)


def test_criterion_6_greedy_and_swap_bounds():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(10):
        net = random_network(rng, m=int(rng.integers(4, 7)),
                             extra_edges=int(rng.integers(0, 3)), n_gens=2)
        op, model, ctx = pipeline(net, r=2, xi=1e-7)
        ev, trace = greedy_select(ctx)
        ok &= check_greedy_bound(ctx, trace, ev.S)
        eps = 1e-3
        ev, strace = local_search(ev, epsilon=eps)
        ok &= len(strace) <= local_search_iteration_cap(ctx, eps) + 1
    assert report(6, ok), "greedy bound or swap budget violated"


def test_criterion_7_performance(case118):
    start = time.monotonic()
    op, model, ctx = pipeline(case118, r=3, xi=CHOSEN_XI)
    solve(ctx)
    two_step_partition(case118, op, model).evaluate(ctx)
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    assert report(7, ok, f"({elapsed:.1f}s)"), f"118-bus took {elapsed:.1f}s"


def test_criterion_8_determinism(tmp_path):
    case = os.path.join(os.path.dirname(__file__), "..", "data",
                        "case39.json")
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gridisland.cli", "run", "--case", case,
             "--method", "both", "--xi", "1e-7,1e-6", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    assert report(8, ok), "repeated CLI runs differ"
