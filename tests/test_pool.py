"""The ordered process pool: input order, first error, no leftover workers,
forked workers that run scripts without re-running them, and one process
off Linux."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gcodeguard
from gcodeguard import _pool
from gcodeguard.cli import main
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


def test_other_platforms_run_in_process(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    outcome = bounded_map(pid_and_square, list(range(POOLED)))
    assert outcome["result"] == [(os.getpid(), x * x) for x in range(POOLED)]


# A library script with no ``if __name__ == "__main__"`` guard, and a worker
# function defined in it: forked workers find both in the copied program,
# and the top-level print runs once.
SCRIPT = """\
import multiprocessing
import os

from gcodeguard import _pool
from gcodeguard.cli import main


def worker_pid(_):
    return os.getpid()


print("top level")
assert main(["generate", "--config", {config!r}, "--out", "scripted"]) == 0
print("in workers:", os.getpid() not in _pool.map_ordered(worker_pid, range({count})))
print("children:", multiprocessing.active_children())
"""


def run_script(tmp_path, monkeypatch, piped):
    """Run ``SCRIPT`` from standard input or from a file; check its output,
    and that its corpus is the one generated in this process."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "d1", "count": POOLED}))
    script = SCRIPT.format(config=str(config), count=POOLED)
    env = dict(os.environ, PYTHONPATH=str(Path(gcodeguard.__file__).parents[1]))
    if piped:
        argv, stdin = [sys.executable, "-"], script
    else:
        (tmp_path / "unguarded.py").write_text(script)
        argv, stdin = [sys.executable, "unguarded.py"], None
    done = subprocess.run(
        argv, input=stdin, text=True, capture_output=True, cwd=tmp_path, env=env,
        timeout=WAIT_S,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines.count("top level") == 1
    assert lines[-2:] == ["in workers: True", "children: []"]

    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    reference = tmp_path / "reference"
    assert main(["generate", "--config", str(config), "--out", str(reference)]) == 0
    scripted = tmp_path / "scripted"
    names = sorted(p.name for p in reference.iterdir())
    assert len(names) == POOLED + 1
    assert sorted(p.name for p in scripted.iterdir()) == names
    for name in names:
        assert (scripted / name).read_bytes() == (reference / name).read_bytes()


@needs_two_cpus
def test_script_piped_into_python_runs_pooled(tmp_path, monkeypatch):
    run_script(tmp_path, monkeypatch, piped=True)


@needs_two_cpus
def test_unguarded_script_file_runs_pooled(tmp_path, monkeypatch):
    run_script(tmp_path, monkeypatch, piped=False)
