import pytest

from awgncap import verify


@pytest.fixture(scope="session")
def checks():
    """Every entry of verify.CHECKS, run once at seed 0, by name."""
    return {name: run(0) for name, run in verify.CHECKS.items()}
