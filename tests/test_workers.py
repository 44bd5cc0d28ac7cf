"""The shared pool's ordered map, ``_workers.in_order``."""
import threading
import time

import numpy as np
import pytest

from steeplab import _workers


def _on_pool() -> bool:
    return threading.current_thread().name.startswith("steeplab-pool")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_in_order_is_map(monkeypatch, cpus):
    monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)

    def fn(item):
        return item, -item   # a tuple passes through as it is

    for workers in range(1, 5):
        for n in range(6):
            for items in (range(n), list(range(10, 10 + n))):
                got = list(_workers.in_order(fn, items, workers))
                assert got == list(map(fn, items)), (workers, items)


@pytest.mark.parametrize("workers", [0, -1])
def test_in_order_rejects_no_workers(workers):
    # workers 0 used to run the first item, then divide by zero
    ran = []
    with pytest.raises(ValueError, match="workers must be >= 1"):
        list(_workers.in_order(ran.append, [1, 2, 3], workers))
    assert ran == []


class _Boom(RuntimeError):
    pass


def test_in_order_raises_a_pool_error_at_its_item(monkeypatch):
    # with 2 CPUs the pool takes the odd items; item 3 is handed out before
    # item 2 runs here, and item 2 waits until the pool has started it
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    started = threading.Event()
    raised_on = []

    def fn(item):
        if item == 2:
            assert started.wait(timeout=30)
        if item == 3:
            raised_on.append(_on_pool())
            started.set()
            raise _Boom(item)
        return 10 * item

    got = []
    with pytest.raises(_Boom) as raised:
        for result in _workers.in_order(fn, range(6), 2):
            got.append(result)
    assert got == [0, 10, 20]
    assert raised.value.args == (3,) and raised_on == [True]


def test_pool_jobs_run_in_the_callers_numpy_error_state(monkeypatch):
    # numpy keeps np.errstate in a context variable, which a pool thread
    # does not inherit; item 0 waits here until the pool has run item 1
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    started = threading.Event()

    def fn(item):
        if item == 0:
            assert started.wait(timeout=30)
        else:
            started.set()
        return _on_pool(), np.geterr()["over"]

    with np.errstate(over="ignore"):
        got = list(_workers.in_order(fn, [0, 1], 2))
    assert got == [(False, "ignore"), (True, "ignore")]


@pytest.mark.parametrize("w", [2, 3])
def test_in_order_runs_the_pool_ahead_of_a_slow_consumer(monkeypatch, w):
    # the pool's items are handed out up to 3w past the one due: it starts
    # item 2w + 1 while the consumer still holds item 0, and never one
    # further ahead than that limit
    monkeypatch.setattr(_workers, "usable_cpus", lambda: w)
    taken = []
    lead = []   # per pool item, how far past the next item taken it started
    started = threading.Event()

    def fn(item):
        if _on_pool():
            lead.append(item - len(taken))
            if item == 2 * w + 1:
                started.set()
        return item

    for item in _workers.in_order(fn, range(8 * w), w):
        if item == 0:
            assert started.wait(timeout=30)
        time.sleep(0.002)   # a slow consumer, such as a writer
        taken.append(item)
    assert taken == list(range(8 * w))
    assert max(lead) <= 3 * w - 1


def test_in_order_leaves_no_job_when_closed(monkeypatch):
    # 3 CPUs: a pool of two threads, one kept busy, so of the six items
    # handed out ahead (items 1 to 8 but 3 and 6) one runs and five wait
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 3)
    release = threading.Event()
    busy = _workers.pool().submit(release.wait, 30)
    jobs = []
    pool = _workers.pool

    class Recording:
        def submit(self, *args):
            jobs.append(pool().submit(*args))
            return jobs[-1]

    monkeypatch.setattr(_workers, "pool", Recording)
    running = threading.Event()

    def fn(item):
        if _on_pool():
            running.set()
            release.wait(timeout=30)
        return item

    results = _workers.in_order(fn, range(12), 3)
    assert next(results) == 0
    assert running.wait(timeout=30)
    timer = threading.Timer(0.05, release.set)
    timer.start()
    results.close()   # cancels the job not started, waits for the other
    assert len(jobs) == 6 and all(job.done() for job in jobs)
    assert [job.cancelled() for job in jobs] == [False] + [True] * 5
    timer.join()
    assert busy.result(timeout=30)
