"""The gcodeguard benchmark: one command per workload and seed.

    python3 benchmark/run.py --workload d1-run-all --seed 1 --seconds 25 --trace 0

A run repeats rounds until the next one would end further past
``--seconds`` than stopping now, with at least one round. A round runs the
workload's set-up, which builds its inputs from the seed (three times over
when the first set-up takes under a second), then its timed operation, each
in a fresh process. After the last round the outputs are checked against
computations made apart from the program (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (set-ups and operations, counted alike) and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, each a
median over the run's set-ups or operations:

    setup_s      set-up process from spawn to exit
    wall_s       the operation's own wall time, measured inside its process
    peak_rss_mb  high-water RSS of the operation's process

With ``--trace 1`` every process wraps the program's public functions
(``tracer.py``) and the metrics are per-layer. Each is read from the
operation's process, or from the round's last set-up for a layer that the
operation does not reach; the median over rounds is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import CHECKS  # noqa: E402
from steps import STEPS  # noqa: E402

# A set-up shorter than this runs SHORT_SETUP_REPEATS times in a round, so
# that setup_s is a median of several.
SHORT_SETUP_S = 1.0
SHORT_SETUP_REPEATS = 3
STEP_TIMEOUT_S = 150.0
DETECTORS = ("single_stat", "combined_stat", "pca_agglomerative", "pca_meanshift", "dbscan")
LAYER_TIMES = (
    "synthgen.generate_dataset",
    "synthgen.build_specimen",
    "gcode.parse_document",
    "gcode.serialize",
    "gcode.simulate",
    "features.extract",
    "mutate.apply_strategy",
    "cli.write_compromised",
    "cli.detect_corpus",
    *(f"detectors.run_detector.{name}" for name in DETECTORS),
    "detectors.cluster_agglomerative",
    "detectors.cluster_meanshift",
    "detectors.cluster_dbscan",
    "detectors.knee_epsilon",
    "evaluate.emit_report",
)
LAYER_CALLS = (
    "gcode.parse_document",
    "features.standardize",
    "detectors.fit_pca",
    "detectors.cluster_agglomerative",
)
LAYER_RSS = ("gcode.parse_document", *(f"detectors.run_detector.{name}" for name in DETECTORS))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{key}.s": "s" for key in LAYER_TIMES}
    units.update({f"{key}.calls": "count" for key in LAYER_CALLS})
    units.update({f"{key}.rss_rise_mb": "MB" for key in LAYER_RSS})
    units["gcode.parse_document.us_per_line"] = "us/line"
    units["cli.detect_corpus.self_s"] = "s"
    return units


def layer_values(spans: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics from one round's spans; an untouched layer reads 0."""

    def get(key: str, field: str) -> float:
        return spans.get(key, {}).get(field, 0)

    values = {f"{key}.s": get(key, "seconds") for key in LAYER_TIMES}
    values.update({f"{key}.calls": get(key, "calls") for key in LAYER_CALLS})
    values.update({f"{key}.rss_rise_mb": get(key, "rss_rise_kb") / 1024 for key in LAYER_RSS})
    lines = get("gcode.parse_document", "lines")
    values["gcode.parse_document.us_per_line"] = (
        1e6 * get("gcode.parse_document", "seconds") / lines if lines else 0.0
    )
    values["cli.detect_corpus.self_s"] = get("cli.detect_corpus", "seconds") - get(
        "cli.detect_corpus", "child_seconds"
    )
    return values


def round_spans(setup: dict[str, dict], op: dict[str, dict]) -> dict[str, dict]:
    """A round's spans: each layer as the operation's process recorded it,
    or as the set-up's did where the operation does not reach the layer
    (generation and compromise on d2-detect)."""
    return {**setup, **op}


def run_step(spec: dict, log: Path):
    """Run one step in a fresh process; returns (ok, wall_s, max_rss_mb, result)."""
    with open(log, "ab") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "steps.py"), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    result = json.loads(Path(spec["result"]).read_text()) if ok else None
    return ok, wall, usage.ru_maxrss / 1024, result


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    rounds = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        work = run_dir / f"round{len(rounds)}"
        work.mkdir(parents=True)
        round_started = time.perf_counter()
        outcome = {}
        setup_walls = []
        steps = ["setup", "op"]
        while steps:
            step = steps.pop(0)
            spec = {
                "workload": workload,
                "step": step,
                "dir": str(work),
                "seed": seed,
                "trace": trace,
                "src": str(SRC),
                "result": str(work / f"{step}.result.json"),
            }
            attempted += 1
            ok, wall, rss_mb, result = run_step(spec, work / "steps.log")
            if not ok:
                failed += 1
                print(f"{workload} round {len(rounds)}: {step} failed, see {work / 'steps.log'}")
                return rounds, attempted, failed
            outcome[step] = (wall, rss_mb, result)
            if step == "setup":
                setup_walls.append(wall)
                if len(setup_walls) == 1 and wall < SHORT_SETUP_S:
                    steps[:0] = ["setup"] * (SHORT_SETUP_REPEATS - 1)
        setup_wall, op_rss = statistics.median(setup_walls), outcome["op"][1]
        rounds.append({
            "dir": work,
            "setup_s": setup_walls,
            "wall_s": outcome["op"][2]["elapsed"],
            "peak_rss_mb": op_rss,
            "spans": round_spans(outcome["setup"][2]["spans"], outcome["op"][2]["spans"]),
        })
        now = time.perf_counter()
        print(
            f"{workload} round {len(rounds) - 1}: setup {setup_wall:.3f} s, "
            f"operation {rounds[-1]['wall_s']:.3f} s{' (traced)' if trace else ''}, "
            f"peak RSS {op_rss:.1f} MB"
        )
        if now - started + (now - round_started) / 2 >= seconds:
            return rounds, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the step it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gcodeguard" / "__init__.py").is_file():
        print(f"error: no gcodeguard source tree under {SRC}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    keep = False
    try:
        rounds, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        if not rounds:
            keep = True
            print(f"error: no round completed; logs kept under {run_dir}", file=sys.stderr)
            return 1
        try:
            failures = CHECKS[args.workload]([r["dir"] for r in rounds])
        except Exception:  # a check that crashes is a failed check
            failures = [traceback.format_exc()]
        for message in failures:
            print(f"check failed: {message}")
        correct = not failures and not failed
        keep = not correct

        if args.trace:
            per_round = [layer_values(r["spans"]) for r in rounds]
            metrics = {
                name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
                for name, unit in per_layer_units().items()
            }
        else:
            setups = [wall for r in rounds for wall in r["setup_s"]]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
            }
        if keep:
            print(f"outputs kept under {run_dir}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        if not keep:
            shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
