import pytest
from hypothesis import settings

from salseg import tensor

# Property tests draw the same examples on every run, and a slow example on a
# loaded host is not a failure.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def finite_guard():
    tensor.set_finite_checks(True)
    yield
    tensor.set_finite_checks(False)
