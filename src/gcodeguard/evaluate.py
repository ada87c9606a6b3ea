"""Scoring detector output against ground truth.

A detector's verdict is a flag set; ground truth is the compromise plan.
Scoring reduces to a confusion matrix over the whole corpus plus per-strategy
recall (every strategy is all-positive for its victims, so recall is the
interesting number; precision comes from the corpus-level false positives).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from ._json import write_json
from .detectors import FlagSet
from .mutate import STRATEGY_IDS, CompromisePlan

__all__ = [
    "ConfusionMatrix",
    "confusion",
    "per_strategy_recall",
    "emit_report",
    "REPORT_VERSION",
]

REPORT_VERSION = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def recall(self) -> float:
        positives = self.tp + self.fn
        return self.tp / positives if positives else 0.0

    @property
    def precision(self) -> float:
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else 0.0

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else 0.0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fp, self.tn, self.fn)


def confusion(flags: FlagSet, truth: CompromisePlan, all_paths: tuple[str, ...]) -> ConfusionMatrix:
    """Corpus-level confusion; ``all_paths`` defines the file universe."""
    universe = set(all_paths)
    victims = {v.path for v in truth.victims}
    missing = victims - universe
    if missing:
        raise ValueError(f"truth names files outside the corpus: {sorted(missing)[:3]}")
    flagged = set(flags.flagged) & universe
    tp = len(flagged & victims)
    fp = len(flagged - victims)
    fn = len(victims - flagged)
    tn = len(universe) - tp - fp - fn
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def per_strategy_recall(flags: FlagSet, truth: CompromisePlan) -> dict[str, dict]:
    """For each strategy present in truth: victim total, detected, recall."""
    flagged = set(flags.flagged)
    out: dict[str, dict] = {}
    for sid in STRATEGY_IDS:
        paths = [v.path for v in truth.victims if v.strategy == sid]
        if not paths:
            continue
        detected = sum(1 for p in paths if p in flagged)
        out[sid] = {
            "total": len(paths),
            "detected": detected,
            "recall": detected / len(paths),
        }
    return out


def emit_report(
    flag_sets: list[FlagSet],
    truth: CompromisePlan,
    all_paths: tuple[str, ...],
    out_dir: str | Path,
) -> dict:
    """Write ``report.csv`` and ``report.json``; returns the report dict.

    The CSV has one row per detector: the confusion counts, precision and
    recall, then detected/total pairs for each strategy present in truth.
    The JSON carries the same numbers plus detector parameters and the flag
    lists, under a report format version.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    strategies = sorted({v.strategy for v in truth.victims})

    per_detector: dict[str, dict] = {}
    for fs in flag_sets:
        cm = confusion(fs, truth, all_paths)
        per_detector[fs.detector] = {
            "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
            "precision": cm.precision,
            "recall": cm.recall,
            "per_strategy": per_strategy_recall(fs, truth),
            "flagged": list(fs.flagged),
            "parameters": fs.parameters,
        }

    report = {
        "report_version": REPORT_VERSION,
        "dataset_id": truth.dataset_id,
        "total_files": len(all_paths),
        "victim_count": len(truth.victims),
        "detectors": per_detector,
    }

    with open(out_path / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["detector", "tp", "fp", "tn", "fn", "precision", "recall"]
        for sid in strategies:
            header += [f"{sid.lower()}_detected", f"{sid.lower()}_total"]
        writer.writerow(header)
        for fs in flag_sets:
            entry = per_detector[fs.detector]
            cm = entry["confusion"]
            row = [
                fs.detector,
                cm["tp"],
                cm["fp"],
                cm["tn"],
                cm["fn"],
                f"{entry['precision']:.4f}",
                f"{entry['recall']:.4f}",
            ]
            for sid in strategies:
                ps = entry["per_strategy"].get(sid, {"detected": 0, "total": 0})
                row += [ps["detected"], ps["total"]]
            writer.writerow(row)

    write_json(out_path / "report.json", report)
    return report
