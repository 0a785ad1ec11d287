import os
import sys

import pytest
from hypothesis import HealthCheck, settings

from subsketch import harness

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def cold_setup():
    """Every test starts and ends without a set-up kept by ``run_experiment``,
    so no test reuses an instance built under another test's patches."""
    harness._last_setup = (None, None)
    yield
    harness._last_setup = (None, None)
