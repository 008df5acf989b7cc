import pytest


@pytest.fixture(scope="session")
def nx():
    """networkx, for the cross-checks; a test that asks for it is skipped
    when it is not installed."""
    return pytest.importorskip("networkx")
