"""The one thread pool: sweep points, episode CSV blocks, the LDPC
decoder's check ranges, Bob's privacy-amplification hash (beside Alice's
decode) and the oracle suite's term and echo-phase checks (beside its MMSE
trials) run in parallel only through ``in_order``.  No other module starts
a thread or asks which CPUs the process may use.

With w threads at work, ``in_order`` hands the pool the items up to 3w
past the one its caller takes next, so the pool keeps working while the
caller formats or writes the items it has.

``in_order`` may be called inside an item of another ``in_order``, as the
decoder is inside a reconciliation, and from a pool job: an item the busy
pool has not started when it is due runs in the calling thread, so no
thread waits on a job queued behind itself."""
from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait

from .params import _integer


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leave_start_cpu() -> None:
    """Move the calling new thread off the CPU it started on, its creator's.

    A kernel that does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` 0) keeps a new thread on its creator's CPU, so
    the pool would share the caller's CPU.  Excluding that CPU once moves
    the thread; restoring the mask leaves it where it went.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (OSError, AttributeError, ValueError, IndexError):
        pass   # no /proc or no affinity calls: leave placement to the kernel


_pool_lock = threading.Lock()
_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None


def pool() -> ThreadPoolExecutor:
    """The process's pool of ``usable_cpus() - 1`` threads, made on first
    use and made anew when the usable CPUs change or in a forked child,
    which has none of its parent's threads; a replaced pool's threads exit
    once no call holds it."""
    global _pool
    cpus = usable_cpus()
    key = (cpus, os.getpid())
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            _pool = (key, ThreadPoolExecutor(
                cpus - 1, thread_name_prefix="steeplab-pool",
                initializer=_leave_start_cpu))
        return _pool[1]


#: in_order hands out the items up to _AHEAD * w past the one due
_AHEAD = 3


def in_order(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """``fn(item)`` for each item, in the order of items.

    With w = min(workers, usable CPUs, len(items)), this thread runs every
    w-th item and the pool the others, handed out while they are fewer than
    ``_AHEAD`` * w (3w) items past the one due, so that the pool runs ahead
    of a slow consumer instead of in step with it; an item the pool has not
    started when it is due runs here.  Pending jobs are cancelled when the
    consumer stops.  A ``workers`` that is not an integer >= 1 raises
    ``ParamError`` before any item runs.
    """
    w = min(_integer("workers", workers, 1), usable_cpus(), len(items))
    pending: dict[int, Future] = {}
    ahead = 0   # the next item to hand out
    try:
        for i, item in enumerate(items):
            while ahead < min(i + _AHEAD * w, len(items)):
                if ahead % w:
                    pending[ahead] = pool().submit(fn, items[ahead])
                ahead += 1
            job = pending.pop(i, None)
            if job is None or job.cancel():   # not started: run it here
                yield fn(item)
            else:
                yield job.result()
    finally:
        for job in pending.values():
            job.cancel()
        wait(pending.values())
