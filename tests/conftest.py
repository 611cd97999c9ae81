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


def build_twisted_chart():
    """Rank-3 algebroid over the plane with non-constant bracket functions.

    Frame a1 = d/dx1, a2 = x1 d/dx1 + d/dx2 of the tangent bundle plus a
    central line rescaled by exp(x1*x2):
        [a1,a2] = a1,  [a1,a3] = x2 a3,  [a2,a3] = (x1*x2 + x1) a3.
    A genuine Lie algebroid whose Jacobi identity balances the quadratic
    terms against the anchor derivatives of the structure functions.
    """
    from algebroid.charts import AlgebroidChart

    return AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["x1", "1"], ["0", "0"]],
        c_upper={
            (1, 2, 1): "1",
            (1, 3, 3): "x2",
            (2, 3, 3): "x1*x2 + x1",
        },
        domain=[(0.5, 1.5), (0.5, 1.5)],
    )


@pytest.fixture
def twisted_chart():
    return build_twisted_chart()
