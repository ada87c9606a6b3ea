"""One set-up or one timed operation of a workload, run in a fresh process.

    python3 benchmark/steps.py '<spec JSON>'

The spec names the workload, the step (``setup`` or ``op``), the round
directory, the seed, whether to trace, the program's source tree and the
path of the result JSON. The step writes its inputs or outputs under the
round directory and a result ``{"elapsed": ..., "spans": ...}``: ``elapsed``
is the operation's own wall time (``None`` for a set-up, which the parent
times from spawn to exit), and ``spans`` holds the tracer's per-function
records when tracing is on.

The program is imported from the source tree named in the spec; the step
refuses to run if ``gcodeguard`` resolves anywhere else.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import synthetic  # noqa: E402

D2_FILES = 120
D2_VICTIMS_PER_STRATEGY = 1
SWEEP_ROWS = 1440
SWEEP_STEP = 0.25
SWEEP_VICTIMS_PER_STRATEGY = 5


def _run_cli(argv: list[str]) -> None:
    from gcodeguard.cli import main

    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"gcodeguard {argv[0]} exited with {rc}")


def d1_setup(work: Path, seed: int) -> None:
    _run_cli(["run-all", "--preset", "d1", "--seed", str(seed), "--out", str(work / "run"), "--dry-run"])


def d1_op(work: Path, seed: int) -> float:
    started = time.perf_counter()
    _run_cli(["run-all", "--preset", "d1", "--seed", str(seed), "--out", str(work / "run")])
    return time.perf_counter() - started


def d2_setup(work: Path, seed: int) -> None:
    victims = {f"ID{i}": D2_VICTIMS_PER_STRATEGY for i in range(1, 7)}
    cfg = str(work / "d2.json")
    Path(cfg).write_text(json.dumps({"preset": "d2-desk", "count": D2_FILES, "victims": victims}) + "\n")
    _run_cli(["generate", "--config", cfg, "--seed", str(seed), "--out", str(work / "original")])
    _run_cli([
        "compromise", "--config", cfg, "--seed", str(seed),
        "--src", str(work / "original"), "--out", str(work / "blind"), "--truth", str(work / "truth"),
    ])


def d2_op(work: Path, seed: int) -> float:
    started = time.perf_counter()
    _run_cli(["detect", "--src", str(work / "blind"), "--out", str(work / "flags")])
    _run_cli([
        "evaluate", "--flags", str(work / "flags"), "--truth", str(work / "truth" / "truth.json"),
        "--manifest", str(work / "blind" / "manifest.json"), "--out", str(work / "report"),
    ])
    return time.perf_counter() - started


def cluster_setup(work: Path, seed: int) -> None:
    from gcodeguard.features import build_matrix

    data = synthetic.sweep_rows(seed, SWEEP_ROWS, SWEEP_STEP, SWEEP_VICTIMS_PER_STRATEGY)
    build_matrix(synthetic.feature_vectors(data))
    synthetic.save(data, work / "sweep.json")


def cluster_op(work: Path, seed: int) -> float:
    from gcodeguard import detectors
    from gcodeguard.evaluate import emit_report
    from gcodeguard.features import build_matrix
    from gcodeguard.mutate import CompromisePlan

    data = synthetic.load(work / "sweep.json")
    fm = build_matrix(synthetic.feature_vectors(data))
    truth = CompromisePlan.from_json_dict({"dataset_id": "SWEEP", "seed": seed, "victims": data["victims"]})
    # Flag sets carry no labels; DBSCAN's are kept for the naive reference.
    dbscan = detectors.cluster_dbscan
    labels: dict[str, list] = {}

    def kept_dbscan(*args, **kwargs):
        result = dbscan(*args, **kwargs)
        labels["cluster_dbscan"] = [int(v) for v in result[0]]
        return result

    detectors.cluster_dbscan = kept_dbscan

    started = time.perf_counter()
    flag_sets = [detectors.run_detector(name, fm) for name in detectors.DETECTOR_NAMES]
    emit_report(flag_sets, truth, fm.paths, work / "report")
    elapsed = time.perf_counter() - started

    (work / "flags").mkdir()
    for fs in flag_sets:
        fs.save(work / "flags" / f"{fs.detector}.json")
    (work / "labels.json").write_text(json.dumps(labels) + "\n")
    return elapsed


STEPS = {
    "d1-run-all": (d1_setup, d1_op),
    "d2-detect": (d2_setup, d2_op),
    "cluster-1440": (cluster_setup, cluster_op),
}


def main(spec: dict) -> int:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import gcodeguard

    if not Path(gcodeguard.__file__).resolve().is_relative_to(src):
        print(f"gcodeguard imported from {gcodeguard.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup, op = STEPS[spec["workload"]]
    work = Path(spec["dir"])
    if spec["step"] == "setup":
        setup(work, spec["seed"])
        elapsed = None
    else:
        elapsed = op(work, spec["seed"])
    result = {"elapsed": elapsed, "spans": tracer.to_json_dict() if tracer else {}}
    Path(spec["result"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
