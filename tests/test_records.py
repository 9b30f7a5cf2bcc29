"""Equality of the records one run passes from stage to stage.

The records that hold arrays (operating point, coherency model, metric
context, solution and the baseline's partition) compare and hash by
identity.  The network's column-wise equality, which the round trip
through `serialize_case` reads, is checked in test_netcase.
"""

import pytest

from gridisland.baseline import two_step_partition
from gridisland.islanding import solve

from casekit import load_case, pipeline

RECORDS = ["OperatingPoint", "CoherencyModel", "MetricContext",
           "IslandingSolution", "TwoStepPartition"]


def case39_records():
    """The five records of one case39 pipeline, by class name."""
    net = load_case("case39.json")
    op, model, ctx = pipeline(net)
    found = [op, model, ctx, solve(ctx), two_step_partition(net, op, model)]
    return {type(x).__name__: x for x in found}


@pytest.fixture(scope="module")
def two_runs():
    return case39_records(), case39_records()


@pytest.mark.parametrize("name", RECORDS)
def test_record_compares_and_hashes_by_identity(two_runs, name):
    a, b = (run[name] for run in two_runs)
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and (a != a) is False
    assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
