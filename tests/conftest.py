import os
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


@pytest.fixture
def usable_cores(monkeypatch):
    """A setter for the number of cores the process reports it may run on."""

    def set_cores(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if hasattr(os, "process_cpu_count"):
            monkeypatch.setattr(os, "process_cpu_count", lambda: cores)

    return set_cores
