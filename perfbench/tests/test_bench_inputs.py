import json
import os

import pytest

import inputs
from gridisland.netcase import parse_case

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORKLOADS = ("case118-sweep", "meshed-120", "tied118-refsel")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_bytes_and_seeds_differ(workload):
    one = inputs.case_texts(workload, 7, ROOT)
    assert inputs.case_texts(workload, 7, ROOT) == one
    other = inputs.case_texts(workload, 8, ROOT)
    assert len(other) == len(one)
    assert all(a != b for a, b in zip(one, other))


@pytest.mark.parametrize("workload,shape", [
    ("case118-sweep", (118, 186, 19)),
    ("meshed-120", (120, 179, 12)),
    ("tied118-refsel", (2832, 4536, 456)),
])
def test_case_shapes(workload, shape):
    for text in inputs.case_texts(workload, 3, ROOT):
        got = inputs.case_shape(text)
        assert (got["m"], got["l"], got["n"]) == shape
        assert got["bytes"] == len(text.encode())


def test_layout_shuffle_keeps_the_network():
    base = inputs.load_case118(ROOT)
    want = parse_case(json.dumps(base))
    for seed in (1, 2):
        assert parse_case(inputs.shuffled_case(base, seed)) == want
    draw = inputs.meshed_case(inputs.MESHED_DRAWS[0])
    assert (parse_case(inputs.shuffled_case(draw, (5, 1)))
            == parse_case(json.dumps(draw)))


def test_tied_copies_are_joined_in_a_ring():
    doc = json.loads(inputs.tied_case(inputs.load_case118(ROOT), 4))
    stride = inputs.TIED_ID_STRIDE
    ties = [(b["from"] // stride, b["to"] // stride) for b in doc["branches"]
            if b["from"] // stride != b["to"] // stride]
    ring = [(c, (c + 1) % inputs.TIED_COPIES)
            for c in range(inputs.TIED_COPIES)]
    assert sorted(ties) == sorted(ring * inputs.TIED_LINKS)
    assert all(b["x_pu"] == inputs.TIED_X_PU for b in doc["branches"][-len(ties):])
