import threading

import pytest


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs."""
    started, start = [], threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    return started
