import pytest

from casekit import load_case, pipeline


@pytest.fixture(scope="session")
def case39():
    return load_case("case39.json")


@pytest.fixture(scope="session")
def case118():
    return load_case("case118.json")


@pytest.fixture(scope="session")
def pipe39(case39):
    return pipeline(case39)


@pytest.fixture(scope="session")
def pipe118(case118):
    return pipeline(case118)
