"""Ordered map over independent items, on every usable core.

``map_ordered(fn, items)`` returns ``[fn(x) for x in items]``. When there
are enough items to keep at least two workers busy, it runs ``fn`` in
``spawn``-started worker processes; otherwise it runs in the calling
process. Results keep input order, and when items fail, the exception of
the earliest failing item is the one raised.

``fn`` and every item must pickle: ``fn`` is a module-level function (or a
``functools.partial`` of one), and the workers re-import the program,
including the caller's ``__main__`` module, so scripts that call this
guard their entry point with ``if __name__ == "__main__"``. A ``__main__``
that workers cannot re-import, such as a script piped into ``python -``,
runs everything in the calling process.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Items one worker must have before it is worth starting. Starting two
# workers that import the package takes 0.3-0.4 s of wall time on two
# cores; generating a file takes about 13 ms and folding one into its
# features 11-23 ms (d1 and D2 files), so two workers break even at 35-70
# files. Measured on 60 files, two workers took 0.85-1.1 s against
# 1.0-1.4 s in one process.
FILES_PER_WORKER = 30
# Items sent to a worker per round trip: 4 files are 45-90 ms of work, so
# queueing costs little and the last chunks still spread over the workers.
_CHUNK = 4


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _main_reimportable() -> bool:
    """Whether a ``spawn`` worker can re-import ``__main__``: by module name,
    from its file, or not at all because it has no file (``python -c``).

    A script read from standard input has ``__file__ == "<stdin>"``, which
    a worker would try to run as a path and die on.
    """
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    return getattr(main, "__spec__", None) is not None or path is None or os.path.isfile(path)


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, spread over worker processes when it pays."""
    items = list(items)
    workers = min(_usable_cpus(), len(items) // FILES_PER_WORKER)
    if workers < 2 or not _main_reimportable():
        return [fn(x) for x in items]
    # Imported here so that a run too small for workers, and every start-up,
    # pays nothing for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(fn, items, chunksize=_CHUNK))
    finally:
        # On failure the chunks not yet started are dropped; either way the
        # workers have exited when this returns.
        pool.shutdown(wait=True, cancel_futures=True)
