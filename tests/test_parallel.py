import os

import pytest

from jamcodec import parallel
from jamcodec.errors import TrainingDivergedError


def test_workers_are_the_candidates_or_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [parallel.n_workers(n) for n in (0, 1, 2, 3, 5)] == [0, 1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel.n_workers(5) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.n_workers(5) == 1


def test_a_closure_maps_in_index_order(cpus):
    offset = [100]  # reaches the workers through fork, never pickled
    assert parallel.fork_map(lambda i: offset[0] + i * i, 7) == [100 + i * i for i in range(7)]
    assert parallel.fork_map(lambda i: i, 0) == []


def test_a_worker_runs_a_nested_map_in_process(cpus):
    inner = parallel.fork_map(lambda i: (parallel.n_workers(4), parallel.fork_map(lambda j: i + j, 3)), 2)
    assert inner == [(1, [0, 1, 2]), (1, [1, 2, 3])]


def test_a_job_s_error_reaches_the_caller_with_its_fields(cpus):
    def fail(i):
        if i == 2:
            raise TrainingDivergedError("loss became non-finite at epoch 4")
        return i

    with pytest.raises(TrainingDivergedError) as info:
        parallel.fork_map(fail, 4)
    assert type(info.value) is TrainingDivergedError
    assert str(info.value) == "loss became non-finite at epoch 4"
    assert parallel._fn is None
