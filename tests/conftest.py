"""Fixtures shared by the test modules."""

import pytest

from opeq import kernel


@pytest.fixture
def forget(monkeypatch):
    """Empty kernel's remembered factorization and spectral norm; calling the fixture empties them again."""
    def empty():
        monkeypatch.setattr(kernel, "_last_factor", None)
        monkeypatch.setattr(kernel, "_last_norm", None)
    empty()
    return empty
