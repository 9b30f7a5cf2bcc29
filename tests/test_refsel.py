import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casekit import load_case, tied_network
from dense_oracle import (
    loop_select_references_greedy,
    loop_select_references_pivoting,
)
from gridisland import refsel
from gridisland.coherency import build_K, inertia, kron_reduce, slow_modes
from gridisland.netcase import dc_power_flow
from gridisland.refsel import (
    SelectionError,
    log_gramian,
    select_references_greedy,
    select_references_pivoting,
)

EPS = np.finfo(float).eps


def test_log_gramian_empty_and_singular():
    U = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert log_gramian(U, []) == 0.0
    assert log_gramian(U, [0, 1]) == float("-inf")  # duplicate rows
    assert log_gramian(U, [0]) == pytest.approx(0.0)  # unit row


def test_greedy_picks_independent_rows():
    U = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]])
    sel = select_references_greedy(U, 2)
    assert set(sel.refs) == {0, 2}


def test_greedy_tie_breaks_to_smallest_index():
    U = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sel = select_references_greedy(U, 1)
    assert sel.refs == (0,)


def test_greedy_rejects_rank_deficient():
    U = np.ones((4, 2))
    with pytest.raises(SelectionError, match="rank-deficient"):
        select_references_greedy(U, 2)
    # a repeated row whose rounded Gram determinant is positive: the
    # exactly zero residual still marks it as rank-deficient
    U = np.array([[0.16058595841724282, -0.29287194810141853]] * 2)
    assert log_gramian(U, [0, 1]) > float("-inf")
    with pytest.raises(SelectionError, match="rank-deficient"):
        select_references_greedy(U, 2)


@pytest.mark.parametrize("select", [select_references_greedy,
                                    select_references_pivoting])
@pytest.mark.parametrize("r", [0, -1, 4])
def test_reference_count_outside_one_to_n_is_an_error(select, r):
    with pytest.raises(SelectionError, match=f"cannot pick {r} "):
        select(np.eye(3), r)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_gains_diminish_along_the_trace(seed):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(6, 3))
    sel = select_references_greedy(U, 3)
    assert len(set(sel.refs)) == 3
    for a, b in zip(sel.gain_trace, sel.gain_trace[1:]):
        assert b <= a + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_log_det_objective_has_diminishing_returns(seed):
    # the greedy guarantee rests on phi(T) = log det(U_T U_T') being
    # submodular over row sets below the rank; enumerated exhaustively
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(3, 7)), 3
    U = rng.normal(size=(n, r))
    rows = range(n)
    for small in itertools.combinations(rows, 1):
        for big in itertools.combinations(rows, 2):
            if not set(small) <= set(big):
                continue
            for v in rows:
                if v in big:
                    continue
                gain_small = log_gramian(U, list(small) + [v]) - log_gramian(U, small)
                gain_big = log_gramian(U, list(big) + [v]) - log_gramian(U, big)
                assert gain_big <= gain_small + 1e-9


def test_pivoting_returns_distinct_rows():
    rng = np.random.default_rng(7)
    U = rng.normal(size=(8, 3))
    sel = select_references_pivoting(U, 3)
    assert len(set(sel.refs)) == 3
    assert all(p > 0 for p in sel.gain_trace)


def test_pivoting_zero_pivot():
    U = np.zeros((3, 2))
    with pytest.raises(SelectionError, match="pivot"):
        select_references_pivoting(U, 1)


def test_pivoting_never_returns_to_a_pivoted_column():
    # the first step leaves 0.324 - (0.324 / 1.125) * 1.125 = -5.6e-17 in
    # row 1 of the pivoted column 0; the free column 1 is all zero
    U = np.array([[1.125, 0.0], [0.324, 0.0]])
    assert _outcome(select_references_pivoting, U, 2) == \
        _outcome(loop_select_references_pivoting, U, 2) == \
        "zero pivot before r steps"


def test_methods_agree_on_case39(pipe39):
    _, model, _ = pipe39
    g = select_references_greedy(model.U, 3)
    p = select_references_pivoting(model.U, 3)
    assert set(g.refs) == set(p.refs)


def test_methods_agree_on_case118(pipe118):
    _, model, _ = pipe118
    g = select_references_greedy(model.U, 3)
    p = select_references_pivoting(model.U, 3)
    assert set(g.refs) == set(p.refs)


def _outcome(select, U, r):
    try:
        sel = select(U, r)
    except SelectionError as exc:
        return str(exc)
    return sel.refs, sel.gain_trace


@st.composite
def bases(draw):
    """Random n x cols bases whose rows may repeat, flip sign, rescale or
    lie within 10^-k of an earlier row, on real or small-integer entries."""
    n, cols = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    r = draw(st.integers(1, min(n, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        U = rng.integers(-3, 4, size=(n, cols)).astype(float)
    else:
        U = rng.normal(size=(n, cols))
    for i in range(1, n):
        kind = draw(st.sampled_from(["fresh", "duplicate", "scaled", "near"]))
        j = draw(st.integers(0, i - 1))
        if kind == "duplicate":
            U[i] = U[j]
        elif kind == "scaled":
            U[i] = U[j] * draw(st.sampled_from([-1.0, 0.5, 2.0, 3.0]))
        elif kind == "near":
            U[i] = U[j] + 10.0 ** -draw(st.integers(1, 16)) * rng.normal(size=cols)
    return U, r


@settings(max_examples=200, deadline=None)
@given(bases())
def test_pivoting_equals_the_row_loop_bitwise(case):
    U, r = case
    assert _outcome(select_references_pivoting, U, r) == \
        _outcome(loop_select_references_pivoting, U, r)


def singular_prefix_basis():
    """14 x 8, rank 4: rows 0, 1, 5, 7 and 9-11 equal a, row 6 is within
    2e-11 of a, row 12 is 2a, and rows 4 and 13 rescale row 2.  The
    candidate loop picks rows 12, 13, 3, 8 and then 6, with a gain of
    -52.2, so its chosen rows are singular to rounding; in round 6 its
    slogdet still finds a gain of -12.9 for row 5."""
    a = [-2.0, -2.0, 2.0, 2.0, 3.0, -2.0, 2.0, -3.0]
    b = [-1.0, 0.0, 0.0, -2.0, 2.0, -1.0, 2.0, 2.0]
    c = [-3.0, 1.0, -2.0, 3.0, 1.0, -3.0, -1.0, -2.0]
    d = [1.0, -1.0, 0.0, 0.0, 2.0, -3.0, 1.0, 1.0]
    U = np.array([a, a, b, c, b, a, a, a, d, a, a, a, a, b])
    U[[4, 12, 13]] *= [[2.0], [2.0], [3.0]]
    U[6] = [-1.9999999999948093, -1.9999999999851752, 1.999999999984843,
            2.0000000000011213, 3.000000000008101, -2.0000000000037494,
            1.9999999999993123, -3.0000000000011955]
    return U


@settings(max_examples=200, deadline=None)
@given(bases())
@example((singular_prefix_basis(), 7))
def test_greedy_equals_the_candidate_loop_up_to_rounding_ties(case):
    """Equal refs and bitwise-equal gains, or a rounding tie where they part.

    The loop ranks candidates by slogdet of the Gram matrix, whose error
    grows like eps * |U|^2 / |r_v|^2; the library ranks them by residual
    norm.  On exact or near duplicates the two can part: the library then
    keeps the smallest index among equal residuals, or sees a residual at
    rounding level as rank deficiency.  Everything up to the first parting
    round must agree bitwise, and there the two picks must score within
    that rounding bound in the loop's own log-det.
    """
    U, r = case
    for k in range(r):   # k + 1 greedy rounds are a prefix of r rounds
        new = _outcome(select_references_greedy, U, k + 1)
        old = _outcome(loop_select_references_greedy, U, k + 1)
        if new != old:
            break
    else:
        return
    # the loop cannot fail where the library found a finite gain: that
    # gain is the loop's own score for the library's pick
    assert not isinstance(old, str)
    prefix = list(old[0][:k])
    noise = 64 * EPS * max(np.einsum("ij,ij->i", U, U))
    current = log_gramian(U, prefix)
    gain_old = log_gramian(U, prefix + [old[0][k]]) - current
    if isinstance(new, str):   # the library's pick is numerically in the span
        assert np.exp(gain_old) <= noise
    else:
        gain_new = log_gramian(U, prefix + [new[0][k]]) - current
        assert abs(gain_new - gain_old) <= noise / np.exp(max(gain_new, gain_old))


def _slow_basis(net, r):
    op, Y = kron_reduce(net)
    return slow_modes(inertia(net), build_K(net, op, Y), r)[1]


@pytest.mark.parametrize("name", ["case39.json", "case118.json"])
def test_selections_equal_the_loops_on_the_bundled_cases(name):
    net = load_case(name)
    for r in range(1, min(net.n, 10) + 1):
        U = _slow_basis(net, r)
        assert select_references_greedy(U, r) == loop_select_references_greedy(U, r)
        assert select_references_pivoting(U, r) == \
            loop_select_references_pivoting(U, r)


@pytest.mark.parametrize("seed", [1, 7])
def test_selections_equal_the_loops_at_2832_buses(seed, monkeypatch):
    U = _slow_basis(tied_network(monkeypatch, 24, seed), 8)
    assert U.shape == (456, 8)
    assert select_references_greedy(U, 8) == loop_select_references_greedy(U, 8)
    assert select_references_pivoting(U, 8) == loop_select_references_pivoting(U, 8)


def test_greedy_evaluates_log_gramian_once_per_round(monkeypatch):
    calls = []

    def counted(U, T):
        calls.append(len(T))
        return log_gramian(U, T)

    monkeypatch.setattr(refsel, "log_gramian", counted)
    U = np.random.default_rng(3).normal(size=(40, 6))
    for r in range(1, 7):
        calls.clear()
        select_references_greedy(U, r)
        assert calls == list(range(1, r + 1))
