"""Fixtures shared across test modules: the towers the examples revolve around."""

import sys

import pytest

from tuhf import Descriptor, TowerSpec
from tuhf.partitions import _GRID, OrderedPartition


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance scorecard (one line per criterion) after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_SCORECARD", None) if mod else None
    if lines:
        terminalreporter.section("acceptance scorecard", sep="-")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def trusted_builds_are_checked(monkeypatch):
    """Composition, tensoring and the closed form build their partitions
    through ``OrderedPartition._trusted``, which skips validation; under
    every test each such build is validated in full first.  Returns the
    unchecked constructor, for tests that need it back."""
    unchecked = OrderedPartition.__dict__["_trusted"]

    def checked(cls, a):
        assert a.dtype == _GRID, f"a trusted build has dtype {a.dtype}"
        OrderedPartition(a)
        return unchecked.__func__(cls, a)

    monkeypatch.setattr(OrderedPartition, "_trusted", classmethod(checked))
    return unchecked


@pytest.fixture
def two_inf_alt() -> TowerSpec:
    # k1 = 4 split as 2*2, one alt 2 2 step repeated: dims 4, 16, 64, ...
    return TowerSpec(4, s1=2, t1=2, cycle=(Descriptor("alt", 2, 2),))


@pytest.fixture
def std_tower() -> TowerSpec:
    return TowerSpec(1, cycle=(Descriptor("std", 2),))


@pytest.fixture
def nest_tower() -> TowerSpec:
    return TowerSpec(1, cycle=(Descriptor("nest", t_mult=2),))


@pytest.fixture
def alt_from_one() -> TowerSpec:
    return TowerSpec(1, cycle=(Descriptor("alt", 2, 2),))
