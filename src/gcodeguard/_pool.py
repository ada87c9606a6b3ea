"""Ordered map over independent items, on every usable core.

``map_ordered(fn, items)`` returns ``[fn(x) for x in items]``. On Linux,
when there are enough items to keep at least two workers busy, it runs
``fn`` in worker processes forked from the caller; otherwise, and on every
other platform, it runs in the calling process. Results keep input order,
and when items fail, the exception of the earliest failing item is the one
raised. The ``generate``, ``compromise`` and ``detect`` stages run their
per-file work through it.

``fn`` and every item must pickle: ``fn`` is a module-level function (or a
``functools.partial`` of one). A forked worker starts as a copy of the
loaded program and imports nothing again, so the caller's ``__main__`` is
never re-run and needs no entry-point guard. ``fork`` is left to Linux
because CPython calls it unsafe on macOS and Windows has none. The workers
run pure Python and numpy code that calls no BLAS, and
``ProcessPoolExecutor`` forks them all before it starts its own manager
thread.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Items one worker must have before it is worth starting. Forking two
# workers and shutting them down costs 7-10 ms of wall time on two cores;
# generating a file takes 5-8 ms and folding one into its features 6-12 ms
# (d1 and D2 files). Measured on two cores, two workers at 4 files each won
# generate (34 against 43 ms in one process) but only broke even on the fold
# (72-104 against 80-108 ms); at 8 files each they won both, generate by 20%
# (74 against 92 ms) and the fold by 11-40% (128-157 against 147-230 ms).
FILES_PER_WORKER = 8
# Items sent to a worker per round trip: 4 files are 20-90 ms of work, so
# queueing costs little and the last chunks still spread over the workers.
_CHUNK = 4


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, spread over worker processes when it pays."""
    items = list(items)
    workers = min(_usable_cpus(), len(items) // FILES_PER_WORKER)
    if workers < 2 or sys.platform != "linux":
        return [fn(x) for x in items]
    # Imported here so that a run too small for workers, and every start-up,
    # pays nothing for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(fn, items, chunksize=_CHUNK))
    finally:
        # On failure the chunks not yet started are dropped; either way the
        # workers have exited when this returns.
        pool.shutdown(wait=True, cancel_futures=True)
