"""Command-line pipeline around the library.

Five subcommands mirror the experiment stages:

    generate    write a rotation-sweep corpus plus its manifest
    compromise  copy a corpus, sabotaging chosen victims; write ground truth
    detect      extract features from a corpus and run detectors over it
    evaluate    score flag sets against ground truth into a report
    run-all     all four stages into one run directory

Stage randomness derives from one master seed: each stage hashes the seed
with its own label, so rerunning any stage with the same configuration
reproduces its output byte for byte. Run directories contain only relative
paths; the single timestamp lives in ``run_metadata.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Iterable

from . import __version__
from ._pool import map_ordered
from .detectors import DETECTOR_NAMES, FlagSet, check_detector_params, run_detectors
from .evaluate import emit_report
from .features import FeatureVector, build_matrix, extract, write_features_csv
from .gcode import parse_document, scan, serialize
from .mutate import (
    STRATEGY_IDS,
    CompromisePlan,
    EmptyRangeError,
    RangeMode,
    Strategy,
    apply_strategy,
    plan_compromise,
)
from .synthgen import DatasetManifest, generate_dataset, preset_spec

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
    detector_params: dict[str, dict] = field(default_factory=dict)
    range_overrides: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        preset_spec(self.dataset_id)  # raises on unknown ids
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.angular_step <= 0:
            raise ValueError(f"angular_step must be > 0, got {self.angular_step}")
        for sid in self.victims:
            if sid not in STRATEGY_IDS:
                raise ValueError(f"unknown strategy in victims: {sid!r}")
        if sum(self.victims.values()) > self.count:
            raise ValueError("more victims than files")
        _check_detector_names(self.detectors)
        check_detector_params(self.detector_params)
        if not isinstance(self.range_overrides, dict):
            raise ValueError(
                f"range_overrides must be a JSON object, got {type(self.range_overrides).__name__}"
            )
        for sid, mode in self.range_overrides.items():
            if sid not in STRATEGY_IDS:
                raise ValueError(f"unknown strategy in range_overrides: {sid!r}")
            RangeMode(mode)  # raises on bad values

    def strategy(self, sid: str) -> Strategy:
        if sid in self.range_overrides:
            return Strategy(sid, RangeMode(self.range_overrides[sid]))
        return Strategy.default(sid)

    def to_json_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "count": self.count,
            "angular_step": self.angular_step,
            "victims": dict(sorted(self.victims.items())),
            "seed": self.seed,
            "detectors": list(self.detectors),
            "detector_params": self.detector_params,
            "range_overrides": dict(sorted(self.range_overrides.items())),
        }


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


def _check_detector_names(names: Iterable[str]) -> None:
    for name in names:
        if name not in DETECTOR_NAMES:
            raise ValueError(f"unknown detector: {name!r}")


def stage_seed(master: int, label: str) -> int:
    """Per-stage seed: a hash of the master seed and the stage name."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _whole(key: str, value: object) -> int:
    """``int(value)``, refusing bools, strings and numbers with a fractional part."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"bad config value: {key} must be an integer, got {value!r}")
    return int(value)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve preset/config-file/flag layers into one validated config."""
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {"preset", *(f.name for f in fields(ExperimentConfig))}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        base = PRESETS[data.pop("preset")] if "preset" in data else None
        if base is not None:
            merged = base.to_json_dict()
            merged.update(data)
            data = merged
        try:
            cfg = ExperimentConfig(
                dataset_id=data["dataset_id"],
                count=_whole("count", data["count"]),
                angular_step=float(data["angular_step"]),
                victims={k: _whole(f"victims {k}", v) for k, v in data.get("victims", {}).items()},
                seed=_whole("seed", data.get("seed", 719)),
                detectors=tuple(data.get("detectors", DETECTOR_NAMES)),
                detector_params=data.get("detector_params", {}),
                range_overrides=data.get("range_overrides", {}),
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


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    manifest = generate_dataset(
        preset_spec(cfg.dataset_id),
        cfg.count,
        cfg.angular_step,
        out,
        stage_seed(cfg.seed, "generate"),
        cfg.dataset_id,
    )
    print(f"generated {len(manifest.entries)} files -> {out}")
    return 0


def cmd_compromise(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    src = Path(args.src)
    out = Path(args.out)
    truth_dir = Path(args.truth)
    manifest = DatasetManifest.load(src / "manifest.json")
    plan = plan_compromise(manifest, cfg.victims, stage_seed(cfg.seed, "compromise"))
    write_compromised(src, out, truth_dir, manifest, plan, cfg)
    print(f"compromised {len(plan.victims)} of {len(manifest.entries)} files -> {out}")
    return 0


def write_compromised(
    src: Path,
    out: Path,
    truth_dir: Path,
    manifest: DatasetManifest,
    plan: CompromisePlan,
    cfg: ExperimentConfig,
) -> None:
    """Copy a corpus, mutating the planned victims; write truth and logs."""
    out.mkdir(parents=True, exist_ok=True)
    logs_dir = truth_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    assigned = {v.path: v.strategy_id for v in plan.victims}
    skipped: set[str] = set()
    for entry in manifest.entries:
        data = (src / entry.path).read_bytes()
        sid = assigned.get(entry.path)
        if sid is None:
            (out / entry.path).write_bytes(data)
            continue
        doc = parse_document(data, source_path=entry.path)
        try:
            mutated, log = apply_strategy(doc, cfg.strategy(sid))
        except EmptyRangeError as exc:
            # A victim the strategy cannot touch stays unmodified and is
            # dropped from the ground truth so evaluation stays honest.
            skipped.add(entry.path)
            print(f"skipping {entry.path}: {exc}", file=sys.stderr)
            (out / entry.path).write_bytes(data)
            continue
        (out / entry.path).write_bytes(serialize(mutated))
        log_data = {"path": entry.path, **log.to_json_dict()}
        (logs_dir / f"{Path(entry.path).stem}.json").write_text(
            json.dumps(log_data, indent=2, sort_keys=True) + "\n"
        )
    manifest.save(out / "manifest.json")
    if skipped:
        plan = CompromisePlan(
            dataset_id=plan.dataset_id,
            seed=plan.seed,
            victims=tuple(v for v in plan.victims if v.path not in skipped),
        )
    (truth_dir / "truth.json").write_text(
        json.dumps(plan.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )


def _file_features(src: Path, name: str) -> FeatureVector:
    """One file's features, folded straight off its ``scan`` records."""
    return extract(scan(src.joinpath(name).read_bytes(), source_path=name), path=name)


def detect_corpus(
    src: Path, out: Path, detectors: tuple[str, ...], detector_params: dict[str, dict]
) -> list[FlagSet]:
    """Feature pass plus every requested detector; writes flag sets and CSVs.

    Each file's features are folded straight off its ``scan`` records, one
    file at a time per usable CPU: no document is built, and memory does not
    grow with the corpus. When files fail, the first in sorted order names
    the error.
    Nothing is written until every detector has returned, so a detector
    that fails leaves no partial output behind.
    """
    paths = sorted(p.name for p in src.glob("*.gcode"))
    if not paths:
        raise ValueError(f"no .gcode files under {src}")
    fm = build_matrix(map_ordered(partial(_file_features, src), paths))
    flag_sets, pts, labels = run_detectors(fm, detectors, detector_params)

    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(fm, out / "features.csv")
    for fs in flag_sets:
        fs.save(out / f"{fs.detector}.json")
    with open(out / "pca_scatter.csv", "w", newline="") as fh:
        fh.write("path,pc1,pc2,cluster_label\n")
        for p, (pc1, pc2), lab in zip(paths, pts, labels):
            fh.write(f"{p},{float(pc1)!r},{float(pc2)!r},{int(lab)}\n")
    return flag_sets


def cmd_detect(args: argparse.Namespace) -> int:
    detectors = tuple(args.detectors.split(",")) if args.detectors else DETECTOR_NAMES
    _check_detector_names(detectors)
    params = {}
    if args.params:
        params = json.loads(Path(args.params).read_text())
        check_detector_params(params)
    flag_sets = detect_corpus(Path(args.src), Path(args.out), detectors, params)
    for fs in flag_sets:
        print(f"{fs.detector}: flagged {len(fs.flagged)}")
    return 0


def _print_confusions(report: dict) -> None:
    for name, entry in sorted(report["detectors"].items()):
        cm = entry["confusion"]
        print(f"{name}: TP={cm['tp']} FP={cm['fp']} TN={cm['tn']} FN={cm['fn']}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    flags_dir = Path(args.flags)
    flag_sets = [
        FlagSet.load(p)
        for p in sorted(flags_dir.glob("*.json"))
    ]
    if not flag_sets:
        raise ValueError(f"no flag sets under {flags_dir}")
    truth = CompromisePlan.from_json_dict(json.loads(Path(args.truth).read_text()))
    manifest = DatasetManifest.load(args.manifest)
    all_paths = tuple(entry.path for entry in manifest.entries)
    _print_confusions(emit_report(flag_sets, truth, all_paths, Path(args.out)))
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    seeds = {
        "generate": stage_seed(cfg.seed, "generate"),
        "compromise": stage_seed(cfg.seed, "compromise"),
    }
    if args.dry_run:
        plan = {
            "config": cfg.to_json_dict(),
            "stage_seeds": seeds,
            "layout": {
                "original": str(out / "original"),
                "blind": str(out / "blind"),
                "truth": str(out / "truth"),
                "flags": str(out / "flags"),
                "report": str(out / "report"),
            },
        }
        print(json.dumps(plan, indent=2, sort_keys=True))
        return 0

    original = out / "original"
    blind = out / "blind"
    truth_dir = out / "truth"
    flags_dir = out / "flags"
    report_dir = out / "report"

    manifest = generate_dataset(
        preset_spec(cfg.dataset_id),
        cfg.count,
        cfg.angular_step,
        original,
        seeds["generate"],
        cfg.dataset_id,
    )
    plan = plan_compromise(manifest, cfg.victims, seeds["compromise"])
    write_compromised(original, blind, truth_dir, manifest, plan, cfg)
    flag_sets = detect_corpus(blind, flags_dir, cfg.detectors, cfg.detector_params)
    all_paths = tuple(entry.path for entry in manifest.entries)
    report = emit_report(flag_sets, plan, all_paths, report_dir)

    metadata = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "config": cfg.to_json_dict(),
        "stage_seeds": seeds,
    }
    (out / "run_metadata.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    )
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
    p.add_argument("--params", help="JSON file with per-detector parameter overrides")
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
