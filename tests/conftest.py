import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from algebroid import catalog

# Property tests draw the same examples on every run and read no example
# database, so a Tier-1 result does not depend on earlier runs.  Tests keep
# their own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

ACCEPTANCE_LINES = []


def record_acceptance(number, description, passed):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append((number, f"acceptance {number:2d} [{status}] {description}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@functools.cache
def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py`, which keeps frozen copies of
    package code for the tests to pin."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def euclidean2():
    return catalog.get("euclidean2")


@pytest.fixture
def sphere():
    return catalog.get("sphere_chart")


@pytest.fixture
def so3():
    return catalog.get("so3_biinv")


@pytest.fixture
def aff2():
    return catalog.get("aff2")


@pytest.fixture
def heisenberg():
    return catalog.get("heisenberg_central")


@pytest.fixture
def foliation():
    return catalog.get("foliation_xy")


@pytest.fixture
def rng():
    return np.random.RandomState(1234)


@pytest.fixture
def twisted_chart():
    return catalog.twisted().chart
