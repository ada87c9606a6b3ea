"""The ordered process pool: input order, first error, no leftover workers."""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from gcodeguard import _pool
from gcodeguard.gcode import MalformedFileError

# Enough items that map_ordered starts two workers where two CPUs are usable.
POOLED = 2 * _pool.FILES_PER_WORKER
WAIT_S = 120

needs_two_cpus = pytest.mark.skipif(
    _pool._usable_cpus() < 2, reason="fewer than 2 usable CPUs: no workers start"
)


def pid_and_square(x):
    return os.getpid(), x * x


def fail_on_multiples_of_7(x):
    if x and x % 7 == 0:
        raise MalformedFileError(f"item {x} is bad")
    return x


def bounded_map(fn, items):
    """``map_ordered`` in a thread joined with a timeout; the result, or the
    exception it raised."""
    outcome = {}

    def call():
        try:
            outcome["result"] = _pool.map_ordered(fn, items)
        except Exception as exc:  # handed back to the test
            outcome["error"] = exc

    thread = threading.Thread(target=call)
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), f"map_ordered did not return within {WAIT_S} s"
    return outcome


@needs_two_cpus
def test_results_keep_input_order_across_workers():
    items = list(range(POOLED))
    outcome = bounded_map(pid_and_square, items)
    pids = {pid for pid, _ in outcome["result"]}
    assert [sq for _, sq in outcome["result"]] == [x * x for x in items]
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [POOLED, 10])
def test_earliest_failure_propagates(count):
    # 7, 14, 21, ... all fail; the one raised must be the first of them.
    outcome = bounded_map(fail_on_multiples_of_7, list(range(count)))
    error = outcome["error"]
    assert type(error) is MalformedFileError
    assert str(error) == "item 7 is bad"
    assert multiprocessing.active_children() == []


def test_single_cpu_affinity_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _pool._usable_cpus() == 1
    outcome = bounded_map(pid_and_square, list(range(POOLED)))
    assert outcome["result"] == [(os.getpid(), x * x) for x in range(POOLED)]


def test_too_few_items_run_in_process():
    items = list(range(2 * _pool.FILES_PER_WORKER - 1))
    outcome = bounded_map(pid_and_square, items)
    assert {pid for pid, _ in outcome["result"]} == {os.getpid()}
