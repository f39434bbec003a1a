"""Fixtures shared by the test modules."""

import threading

import pytest


@pytest.fixture
def no_thread_outlives():
    """A check that every thread started since the test began has ended:
    none named ``survtower-worker*`` is alive, and as many threads are
    alive as when the test began."""
    before = threading.active_count()

    def check():
        assert [t.name for t in threading.enumerate() if t.name.startswith("survtower-worker")] == []
        assert threading.active_count() == before

    return check
