import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def announce(capfd):
    """Print a live pass/fail line that bypasses pytest capture."""
    def _say(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)
    return _say


@pytest.fixture
def no_sphere_search(monkeypatch):
    """Make any multistart sphere search fail the test."""
    def no_search(*args, **kwargs):
        raise AssertionError("the sphere search ran")

    monkeypatch.setattr("bjorth.minimax.multistart_minimize", no_search)
