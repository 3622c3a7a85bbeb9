import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from relquad.field import make_field

# hypothesis draws the same examples on every run, so tier-1 is deterministic
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def Q():
    return make_field()


@pytest.fixture(scope="session")
def Q5():
    return make_field(5)


@pytest.fixture(scope="session")
def Q10():
    return make_field(10)


@pytest.fixture(scope="session")
def Qm15():
    return make_field(-15)


@pytest.fixture(scope="session")
def test_fields():
    """The four fields every sweep in the acceptance suite runs over."""
    return [make_field(), make_field(5), make_field(10), make_field(-15)]
