import multiprocessing
import os
import threading

import pytest

# os.sched_getaffinity stand-ins: one CPU runs fork_map's jobs in-process, four fork a worker per job
CPUS = {"in_process": {0}, "pool": {0, 1, 2, 3}}


@pytest.fixture(params=sorted(CPUS))
def cpus(request, monkeypatch):
    """Runs a test once in-process and once through forked workers, then checks that no worker
    process or pool thread is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[request.param])
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: contexts.append(method) or get_context(method))
    threads = threading.active_count()
    yield request.param
    assert set(contexts) == (set() if request.param == "in_process" else {"fork"})
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
