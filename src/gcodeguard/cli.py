"""Command-line pipeline around the library.

Five subcommands mirror the experiment stages:

    generate    write a rotation-sweep corpus plus its manifest
    compromise  copy a corpus, sabotaging chosen victims; write ground truth
    detect      extract features from a corpus and run detectors over it
    evaluate    score flag sets against ground truth into a report
    run-all     the same four stage functions, into one run directory

Stage randomness derives from one master seed: each stage hashes the seed
with its own label, so rerunning any stage with the same configuration
reproduces its output byte for byte. Run directories contain only relative
paths; the single timestamp lives in ``run_metadata.json``. A configuration
names which files are victims and which detectors run, never how either
works: each strategy runs on the range documented in ``mutate``, and each
detector with the constants documented in ``detectors``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from ._json import dumps, read_json, read_record, write_json
from ._pool import map_ordered
from .detectors import DETECTOR_NAMES, FlagSet, check_detectors, run_detectors
from .evaluate import emit_report
from .features import FeatureVector, build_matrix, extract, write_features_csv
from .gcode import parse_document, serialize
from .mutate import (
    STRATEGY_IDS,
    CompromisePlan,
    EmptyRangeError,
    Strategy,
    apply_strategy,
    check_victims,
    plan_compromise,
)
from .synthgen import DatasetManifest, check_sweep, generate_dataset, preset_spec

__all__ = ["ExperimentConfig", "PRESETS", "main"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, serializable to JSON."""

    dataset_id: str
    count: int
    angular_step: float
    victims: dict[str, int] = field(default_factory=dict)
    seed: int = 719
    detectors: tuple[str, ...] = DETECTOR_NAMES

    def validate(self) -> None:
        preset_spec(self.dataset_id)  # raises on unknown ids
        check_sweep(self.count, self.angular_step)
        check_victims(self.victims, self.count)
        check_detectors(self.detectors)


PRESETS: dict[str, ExperimentConfig] = {
    "d1": ExperimentConfig(
        dataset_id="D1",
        count=180,
        angular_step=1.0,
        victims={"ID1": 2},
        seed=719,
    ),
    "d2-desk": ExperimentConfig(
        dataset_id="D2",
        count=720,
        angular_step=0.5,
        victims={sid: 5 for sid in STRATEGY_IDS},
        seed=719,
    ),
    "d2-full": ExperimentConfig(
        dataset_id="D2",
        count=4320,
        angular_step=0.25,
        victims={sid: 10 for sid in STRATEGY_IDS},
        seed=719,
    ),
}


# The subdirectories of a run directory, one per stage output.
RUN_LAYOUT = ("original", "blind", "truth", "flags", "report")


def stage_seed(master: int, label: str) -> int:
    """Per-stage seed: a hash of the master seed and the stage name."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _number(key: str, value: object, kind: type = float) -> float:
    """``kind(value)``, refusing bools, strings and, for ``int``, numbers
    with a fractional part."""
    if isinstance(value, (bool, str)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"bad config value: {key} must be {noun}, got {value!r}")
    return kind(value)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve preset/config-file/flag layers into one validated config."""
    if getattr(args, "config", None):
        data = read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {"preset", *(f.name for f in fields(ExperimentConfig))}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        if "preset" in data:
            preset = data.pop("preset")
            if not (isinstance(preset, str) and preset in PRESETS):
                raise ValueError(f"unknown preset: {preset!r}")
            data = {**asdict(PRESETS[preset]), **data}
        missing = [key for key in ("dataset_id", "count", "angular_step") if key not in data]
        if missing:
            raise ValueError(f"missing config key(s): {', '.join(map(repr, missing))}")
        victims = data.get("victims", {})
        detectors = data.get("detectors", DETECTOR_NAMES)
        if isinstance(detectors, str):
            raise ValueError(
                f"bad config value: detectors must be a non-empty list of names, got {detectors!r}"
            )
        try:
            cfg = ExperimentConfig(
                dataset_id=data["dataset_id"],
                count=_number("count", data["count"], int),
                angular_step=_number("angular_step", data["angular_step"]),
                victims={k: _number(f"victims {k}", v, int) for k, v in victims.items()},
                seed=_number("seed", data.get("seed", 719), int),
                detectors=tuple(detectors),
            )
        except (TypeError, AttributeError) as exc:
            # A value of the wrong JSON type, e.g. "count": null.
            raise ValueError(f"bad config value: {exc}") from exc
    elif getattr(args, "preset", None):
        cfg = PRESETS[args.preset]
    else:
        raise ValueError("pass --preset or --config")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "detectors", None):
        cfg = replace(cfg, detectors=tuple(args.detectors.split(",")))
    cfg.validate()
    return cfg


def generate_corpus(cfg: ExperimentConfig, out: Path) -> DatasetManifest:
    """The generate stage: ``cfg``'s rotation sweep under its generate seed."""
    seed = stage_seed(cfg.seed, "generate")
    spec = preset_spec(cfg.dataset_id)
    return generate_dataset(spec, cfg.count, cfg.angular_step, out, seed, cfg.dataset_id)


def compromise_corpus(
    cfg: ExperimentConfig, src: Path, out: Path, truth_dir: Path
) -> tuple[DatasetManifest, CompromisePlan]:
    """The compromise stage: plan ``cfg``'s victims over the corpus in
    ``src`` under its compromise seed and write the blind copy. Returns the
    corpus manifest and the ground truth written."""
    manifest = DatasetManifest.load(src / "manifest.json")
    plan = plan_compromise(manifest, cfg.victims, stage_seed(cfg.seed, "compromise"))
    return manifest, write_compromised(src, out, truth_dir, manifest, plan)


def _compromise_file(src: Path, out: Path, logs_dir: Path, item: tuple) -> str | None:
    """Copy one file of a corpus into ``out``, mutated and logged when
    ``item``, its path and its ``Strategy`` or ``None``, names a victim.
    Returns why the strategy could not touch the victim, or ``None``."""
    path, strategy = item
    data = (src / path).read_bytes()
    if strategy is not None:
        try:
            mutated, log = apply_strategy(parse_document(data, source_path=path), strategy)
        except EmptyRangeError as exc:
            # A victim the strategy cannot touch stays unmodified and is
            # dropped from the ground truth so evaluation stays honest.
            (out / path).write_bytes(data)
            return str(exc)
        data = serialize(mutated)
        write_json(logs_dir / f"{Path(path).stem}.json", {"path": path, **asdict(log)})
    (out / path).write_bytes(data)
    return None


def write_compromised(
    src: Path,
    out: Path,
    truth_dir: Path,
    manifest: DatasetManifest,
    plan: CompromisePlan,
) -> CompromisePlan:
    """Copy a corpus, mutating the planned victims; write truth and logs.

    Files are copied, or parsed, mutated and logged, in worker processes as
    in ``generate`` and ``detect``; when files fail, the first in manifest
    order names the error, and what the call wrote and any earlier index and
    truth there are taken away. Returns the truth written to ``truth.json``:
    the plan without the victims that their strategy could not touch.
    """
    logs_dir = truth_dir / "logs"
    made = {d for d in (out, *out.parents, logs_dir, *logs_dir.parents) if not d.exists()}
    out.mkdir(parents=True, exist_ok=True)
    logs_dir.mkdir(parents=True, exist_ok=True)
    assigned = {v.path: Strategy.default(v.strategy) for v in plan.victims}
    items = [(entry.path, assigned.get(entry.path)) for entry in manifest.entries]
    try:
        reasons = map_ordered(partial(_compromise_file, src, out, logs_dir), items)
    except BaseException:
        # Every worker has exited: take away what this call wrote, and the
        # index and truth of any earlier run, which name the removed copies.
        logs = [logs_dir / f"{Path(p).stem}.json" for p in assigned]
        index = [out / "manifest.json", truth_dir / "truth.json"]
        for path in [out / p for p, _ in items] + logs + index:
            path.unlink(missing_ok=True)
        for d in sorted(made, key=lambda d: len(d.parts), reverse=True):
            d.rmdir()
        raise
    skipped = set()
    for (path, _), reason in zip(items, reasons):
        if reason is not None:
            skipped.add(path)
            print(f"skipping {path}: {reason}", file=sys.stderr)
    manifest.save(out / "manifest.json")
    truth = replace(plan, victims=tuple(v for v in plan.victims if v.path not in skipped))
    write_json(truth_dir / "truth.json", truth)
    return truth


def _file_features(src: Path, name: str) -> FeatureVector:
    """One file's features, folded straight off its bytes."""
    return extract(src.joinpath(name).read_bytes(), path=name)


def detect_corpus(src: Path, out: Path, detectors: tuple[str, ...]) -> list[FlagSet]:
    """Feature pass plus every requested detector; writes flag sets and CSVs.

    Detector names are checked before any file is read. Each file's
    features are folded straight off its bytes, one file at a time per
    usable CPU: no document is built, and memory does not grow with the
    corpus. When files fail, the first in sorted order names the error.
    Nothing is written until every detector has returned, so a detector
    that fails leaves no partial output behind.
    """
    check_detectors(detectors)
    paths = sorted(p.name for p in src.glob("*.gcode"))
    if not paths:
        raise ValueError(f"no .gcode files under {src}")
    fm = build_matrix(map_ordered(partial(_file_features, src), paths))
    flag_sets, pts, labels = run_detectors(fm, detectors)

    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(fm, out / "features.csv")
    for fs in flag_sets:
        fs.save(out / f"{fs.detector}.json")
    with open(out / "pca_scatter.csv", "w", newline="") as fh:
        fh.write("path,pc1,pc2,cluster_label\n")
        for p, (pc1, pc2), lab in zip(paths, pts, labels):
            fh.write(f"{p},{float(pc1)!r},{float(pc2)!r},{int(lab)}\n")
    return flag_sets


def evaluate_flags(
    flag_sets: list[FlagSet], truth: CompromisePlan, manifest: DatasetManifest, out: Path
) -> dict:
    """The evaluate stage: score flag sets, in ``DETECTOR_NAMES`` order and
    then any other names sorted, into ``report.csv`` and ``report.json``."""
    rank = {name: i for i, name in enumerate(DETECTOR_NAMES)}
    ordered = sorted(flag_sets, key=lambda fs: (rank.get(fs.detector, len(rank)), fs.detector))
    all_paths = tuple(entry.path for entry in manifest.entries)
    return emit_report(ordered, truth, all_paths, out)


def _print_confusions(report: dict) -> None:
    for name, entry in sorted(report["detectors"].items()):
        cm = entry["confusion"]
        print(f"{name}: TP={cm['tp']} FP={cm['fp']} TN={cm['tn']} FN={cm['fn']}")


def cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    manifest = generate_corpus(load_config(args), out)
    print(f"generated {len(manifest.entries)} files -> {out}")
    return 0


def cmd_compromise(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    manifest, truth = compromise_corpus(cfg, Path(args.src), out, Path(args.truth))
    print(f"compromised {len(truth.victims)} of {len(manifest.entries)} files -> {out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    detectors = tuple(args.detectors.split(",")) if args.detectors else DETECTOR_NAMES
    for fs in detect_corpus(Path(args.src), Path(args.out), detectors):
        print(f"{fs.detector}: flagged {len(fs.flagged)}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    flags_dir = Path(args.flags)
    paths = sorted(flags_dir.glob("*.json"))
    flag_sets = [FlagSet.load(p) for p in paths]
    if not flag_sets:
        raise ValueError(f"no flag sets under {flags_dir}")
    owners: dict[str, Path] = {}
    for path, fs in zip(paths, flag_sets):
        first = owners.setdefault(fs.detector, path)
        if first != path:
            raise ValueError(f"{path}: names detector {fs.detector!r}, as {first} does")
    truth = read_record(args.truth, CompromisePlan.from_json_dict)
    manifest = DatasetManifest.load(args.manifest)
    _print_confusions(evaluate_flags(flag_sets, truth, manifest, Path(args.out)))
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    seeds = {label: stage_seed(cfg.seed, label) for label in ("generate", "compromise")}
    dirs = [out / name for name in RUN_LAYOUT]
    if args.dry_run:
        layout = {name: str(path) for name, path in zip(RUN_LAYOUT, dirs)}
        print(dumps({"config": cfg, "stage_seeds": seeds, "layout": layout}), end="")
        return 0

    original, blind, truth_dir, flags_dir, report_dir = dirs
    generate_corpus(cfg, original)
    manifest, truth = compromise_corpus(cfg, original, blind, truth_dir)
    flag_sets = detect_corpus(blind, flags_dir, cfg.detectors)
    report = evaluate_flags(flag_sets, truth, manifest, report_dir)
    write_json(out / "run_metadata.json", {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "config": cfg,
        "stage_seeds": seeds,
    })
    _print_confusions(report)
    print(f"run complete -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcodeguard",
        description="Inject and detect sabotage in synthetic toolpath corpora.",
    )
    parser.add_argument("--version", action="version", version=f"gcodeguard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", choices=sorted(PRESETS), help="built-in configuration")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master seed override")

    p = sub.add_parser("generate", help="write a rotation-sweep corpus")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compromise", help="sabotage chosen files of a corpus")
    add_config_args(p)
    p.add_argument("--src", required=True, help="directory with corpus + manifest.json")
    p.add_argument("--out", required=True, help="directory for the compromised copy")
    p.add_argument("--truth", required=True, help="directory for ground truth + logs")
    p.set_defaults(func=cmd_compromise)

    p = sub.add_parser("detect", help="run detectors over a corpus")
    p.add_argument("--src", required=True, help="directory with .gcode files")
    p.add_argument("--out", required=True, help="directory for flag sets and CSVs")
    p.add_argument("--detectors", help="comma-separated detector names (default: all)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score flag sets against ground truth")
    p.add_argument("--flags", required=True, help="directory with flag-set JSON files")
    p.add_argument("--truth", required=True, help="truth.json path")
    p.add_argument("--manifest", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True, help="directory for report.csv / report.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-all", help="generate, compromise, detect, evaluate")
    add_config_args(p)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--detectors", help="comma-separated detector names override")
    p.add_argument("--dry-run", action="store_true", help="print the plan, write nothing")
    p.set_defaults(func=cmd_run_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
