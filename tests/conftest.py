import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """One entry per ``os.fork`` call made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls
