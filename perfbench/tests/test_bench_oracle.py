import copy
import json
import os

import pytest

import oracle
import worker
from gridisland import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CASE39 = os.path.join(ROOT, "data", "case39.json")
XIS = [1e-7, 1e-6]


@pytest.fixture(scope="module")
def case():
    with open(CASE39) as fh:
        text = fh.read()
    rc, out, err = worker.call(cli.main, [
        "run", "--case", CASE39, "--method", "both",
        "--xi", ",".join(map(str, XIS))])
    assert rc == 0 and err is None
    return oracle.Network(text), json.loads(out)


def problems(case, edit):
    net, report = case
    bad = copy.deepcopy(report)
    edit(bad)
    return oracle.check_run(net, bad, 3, XIS, ["weak-submodular", "spectral"])


def test_program_output_passes(case):
    assert problems(case, lambda r: None) == []


def weak(r):
    return r["runs"][0]["methods"]["weak-submodular"]


def spectral(r):
    return r["runs"][1]["methods"]["spectral"]


@pytest.mark.parametrize("edit,needle", [
    (lambda r: weak(r).update(J=weak(r)["J"] * (1 + 1e-6)), "closed form"),
    (lambda r: spectral(r).update(J=spectral(r)["J"] * (1 - 1e-6)), "closed form"),
    (lambda r: weak(r).update(H_bar=weak(r)["H_bar"] + 1e-6), "H_bar"),
    (lambda r: weak(r).update(sqrt_f_mw=weak(r)["sqrt_f_mw"] + 1e-3), "sqrt_f"),
    (lambda r: weak(r)["cutset"].pop(), "cutset"),
    (lambda r: weak(r)["kept"].pop(), "forest"),
    (lambda r: spectral(r)["generator_groups"].reverse(), "misses generators"),
    (lambda r: r["refs"].update(used=r["refs"]["used"][:2]), "distinct"),
    (lambda r: r["runs"][0]["methods"].pop("spectral"), "methods"),
])
def test_corrupted_report_is_caught(case, edit, needle):
    found = problems(case, edit)
    assert any(needle in p for p in found), found


def test_refsel_needs_distinct_generator_buses(case):
    net, _ = case
    assert oracle.check_refsel(net, {"greedy": [30, 31, 32],
                                     "pivoting": [32, 31, 30]}, 3) == []
    assert oracle.check_refsel(net, {"greedy": [30, 30, 32],
                                     "pivoting": [1, 31, 30]}, 3) != []
