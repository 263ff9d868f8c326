import pytest

from pimfilter.kernel import plan_layout


@pytest.fixture(scope="session")
def layout():
    return plan_layout()
