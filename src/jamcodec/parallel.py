"""One fork-based map over independent jobs: search candidates, feature chunks, forests.

``fork_map(fn, n)`` returns ``[fn(i) for i in range(n)]``. It runs the jobs in
``n_workers(n)`` forked worker processes, or in this process when that is one:
min(n, usable CPUs), where the usable CPUs are os.sched_getaffinity's
(os.cpu_count's where that is unavailable), and one inside a worker, whose
daemonic process cannot fork a pool of its own. ``fn`` may be any callable,
a closure included: the workers inherit it, its data and the imported modules
through fork (jamcodec starts no threads of its own), so only job indices and
results are pickled. Every job is the same computation on the same operands
either way, and results come back in index order, so the caller's bytes do
not depend on the path taken or on the number of CPUs.
"""

import os

# fork_map's job while its pool runs: set before the workers fork and cleared after,
# so one pool runs at a time in a process
_fn = None
_in_worker = False


def _mark_worker():
    global _in_worker
    _in_worker = True


def _call(i):
    return _fn(i)


def n_workers(n_jobs):
    """Worker processes for n_jobs jobs: min(n_jobs, usable CPUs), and 1 inside a worker."""
    if _in_worker:
        return min(n_jobs, 1)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(n_jobs, cpus)


def fork_map(fn, n):
    """[fn(i) for i in range(n)], in n_workers(n) forked workers when that is more than one.

    A job's exception is raised here, pickled from the worker that raised it.
    """
    global _fn
    workers = n_workers(n)
    if workers < 2:
        return [fn(i) for i in range(n)]
    import multiprocessing  # here: importing it at the top would load it into every run

    _fn = fn
    try:
        pool = multiprocessing.get_context("fork").Pool(workers, initializer=_mark_worker)
        try:
            results = pool.map(_call, range(n), chunksize=1)
        except BaseException:
            pool.terminate()
            pool.join()
            raise
        pool.close()  # close then join: no worker or handler thread outlives the call
        pool.join()
    finally:
        _fn = None
    return results
