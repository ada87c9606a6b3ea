"""Sabotage strategies applied to parsed toolpaths.

Six file-level attacks, identified ``ID1`` .. ``ID6``. All of them target
extruding moves (G1 lines carrying an E parameter) inside a line range:

    ID1  convert every 4th extruding move to a travel (G0, E and F dropped)
    ID2  as ID1, but insert a stationary ``G1 E<v>`` after each conversion,
         re-extruding the skipped material in place as a blob
    ID3  halve every extrusion delta, re-accumulating absolute E targets
    ID4  set every 4th extruding move's E to the previous move's E (delta 0)
    ID5  set every 4th extruding move's E to the previous E plus 0.0001
    ID6  delete every 4th extruding move outright

The range is either the middle half of the layer stack (``middle50``, the
default for all but ID3) or everything from the first layer on (``full100``,
the default for ID3, whose per-move effect is too small to need hiding).

Rewritten E values go through float parsing and are re-rendered in minimal
decimal form, the way a quick script would produce them. Untouched lines are
preserved byte for byte.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Mapping

from .gcode import (
    GcodeDocument,
    GcodeLine,
    LineKind,
    Param,
    make_command,
    render_command,
    simulate,
)
from .synthgen import DatasetManifest

__all__ = [
    "STRATEGY_IDS",
    "EmptyRangeError",
    "RangeMode",
    "Strategy",
    "MutationLog",
    "VictimAssignment",
    "CompromisePlan",
    "select_range",
    "apply_strategy",
    "plan_compromise",
    "format_minimal",
]

STRATEGY_IDS = ("ID1", "ID2", "ID3", "ID4", "ID5", "ID6")


class EmptyRangeError(ValueError):
    """The selected range contains nothing the strategy could touch."""


class RangeMode(enum.Enum):
    MIDDLE50 = "middle50"
    FULL100 = "full100"


_DEFAULT_RANGE = {
    "ID1": RangeMode.MIDDLE50,
    "ID2": RangeMode.MIDDLE50,
    "ID3": RangeMode.FULL100,
    "ID4": RangeMode.MIDDLE50,
    "ID5": RangeMode.MIDDLE50,
    "ID6": RangeMode.MIDDLE50,
}


@dataclass(frozen=True)
class Strategy:
    """One attack: a strategy id plus the line range it operates on."""

    strategy_id: str
    range_mode: RangeMode

    def __post_init__(self) -> None:
        if self.strategy_id not in STRATEGY_IDS:
            raise ValueError(f"unknown strategy id: {self.strategy_id!r}")

    @staticmethod
    def default(strategy_id: str) -> "Strategy":
        if strategy_id not in _DEFAULT_RANGE:
            raise ValueError(f"unknown strategy id: {strategy_id!r}")
        return Strategy(strategy_id, _DEFAULT_RANGE[strategy_id])


def format_minimal(value: float) -> str:
    """Shortest plain-decimal text for a float, trailing zeros trimmed.

    ``12.30000`` becomes ``"12.3"``, ``5.0`` becomes ``"5"``. This is how a
    parse-and-reprint pass normalizes numbers, and it is exactly what makes
    rewritten E tokens stand out against a corpus that always writes five
    decimal places. Values whose repr is scientific notation (below 1e-4 or
    at 1e16 and up) expand to their exact positional form instead, since the
    command grammar only accepts plain decimals.
    """
    text = repr(value)
    if "e" in text:
        text = format(Decimal(value), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def select_range(doc: GcodeDocument, mode: RangeMode) -> range:
    """Line-index span the strategy operates on.

    ``full100`` spans from the first layer marker to the end of the file;
    ``middle50`` spans layers ``ceil(L/4)`` up to (excluding) ``floor(3L/4)``.
    Raises ``EmptyRangeError`` if the document has no layer markers or the
    middle half collapses to nothing (fewer than 3 layers).
    """
    marks = doc.layer_marks
    if not marks:
        raise EmptyRangeError("document has no layer markers")
    if mode is RangeMode.FULL100:
        return range(marks[0][0], len(doc.lines))
    layers = len(marks)
    first = -(-layers // 4)  # ceil
    last = (3 * layers) // 4
    if first >= last:
        raise EmptyRangeError(f"middle half of {layers} layer(s) is empty")
    return range(marks[first][0], marks[last][0])


def _extruding_move_indices(doc: GcodeDocument, span: range) -> list[int]:
    out = []
    for i in span:
        line = doc.lines[i]
        if line.kind is LineKind.COMMAND and line.code == "G1" and line.has_param("E"):
            out.append(i)
    return out


def _e_register_before(doc: GcodeDocument, stop: int) -> float:
    """E register value after executing lines[:stop]."""
    e = 0.0
    for line in doc.lines[:stop]:
        if line.kind is LineKind.COMMAND and line.code in ("G0", "G1", "G92"):
            p = line.param("E")
            if p is not None:
                e = p.value
    return e


@dataclass(frozen=True)
class MutationLog:
    """What one strategy application actually did to one document."""

    strategy_id: str
    range_mode: RangeMode
    span_start: int
    span_end: int
    target_line_indices: tuple[int, ...]
    lines_rewritten: int
    lines_deleted: int
    lines_inserted: int
    original_final_e: float
    mutated_final_e: float

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy_id,
            "range_mode": self.range_mode.value,
            "span": [self.span_start, self.span_end],
            "targets": list(self.target_line_indices),
            "lines_rewritten": self.lines_rewritten,
            "lines_deleted": self.lines_deleted,
            "lines_inserted": self.lines_inserted,
            "original_final_e": self.original_final_e,
            "mutated_final_e": self.mutated_final_e,
        }


def _with_e_text(line: GcodeLine, text: str) -> GcodeLine:
    params = tuple(
        Param("E", text, float(text)) if p.letter == "E" else p for p in line.params
    )
    return GcodeLine(
        raw_text=render_command(line.code or "", params, line.comment),
        kind=LineKind.COMMAND,
        line_index=line.line_index,
        code=line.code,
        params=params,
        comment=line.comment,
    )


def apply_strategy(doc: GcodeDocument, strategy: Strategy) -> tuple[GcodeDocument, MutationLog]:
    """Return a mutated copy of ``doc`` plus a log of the edit.

    Every fourth extruding move in the range is targeted (ID3 targets all of
    them). Raises ``EmptyRangeError`` when no move qualifies.
    """
    span = select_range(doc, strategy.range_mode)
    moves = _extruding_move_indices(doc, span)
    sid = strategy.strategy_id
    targets = moves if sid == "ID3" else moves[3::4]
    if not targets:
        raise EmptyRangeError(f"{sid}: no extruding moves to target in range")
    target_set = set(targets)

    original_summary = simulate(doc)
    rewritten = deleted = inserted = 0
    new_lines: list[GcodeLine] = list(doc.lines[: span.start])

    if sid == "ID3":
        orig_reg = new_reg = _e_register_before(doc, span.start)
        for i in span:
            line = doc.lines[i]
            if i in target_set:
                e = line.param("E").value
                new_val = new_reg + (e - orig_reg) / 2.0
                new_lines.append(_with_e_text(line, f"{new_val:.5f}"))
                orig_reg, new_reg = e, new_val
                rewritten += 1
                continue
            if line.kind is LineKind.COMMAND and line.code in ("G0", "G1", "G92"):
                p = line.param("E")
                if p is not None:
                    # A register move we do not rewrite: both streams land on
                    # the stated value and deltas continue from there.
                    orig_reg = new_reg = p.value
            new_lines.append(line)
    elif sid in ("ID1", "ID2"):
        for i in span:
            line = doc.lines[i]
            if i in target_set:
                e = line.param("E").value
                params = tuple(p for p in line.params if p.letter not in ("E", "F"))
                new_lines.append(make_command("G0", params, line.comment))
                rewritten += 1
                if sid == "ID2":
                    blob = Param("E", format_minimal(e), e)
                    new_lines.append(make_command("G1", (blob,)))
                    inserted += 1
            else:
                new_lines.append(line)
    elif sid in ("ID4", "ID5"):
        prev_e = None
        for i in span:
            line = doc.lines[i]
            if i in target_set:
                # Targets start at the 4th move, so a previous move always
                # exists within the range.
                value = prev_e if sid == "ID4" else prev_e + 0.0001
                new_lines.append(_with_e_text(line, format_minimal(value)))
                rewritten += 1
            else:
                new_lines.append(line)
            # Track the original E of the latest extruding move; targets are
            # 4 apart, so a target's predecessor is never itself rewritten.
            if line.is_command("G1") and line.has_param("E"):
                prev_e = line.param("E").value
    elif sid == "ID6":
        for i in span:
            if i in target_set:
                deleted += 1
                continue
            new_lines.append(doc.lines[i])
    else:  # pragma: no cover - guarded by Strategy validation
        raise AssertionError(sid)

    new_lines.extend(doc.lines[span.stop :])
    mutated = GcodeDocument.from_lines(
        new_lines, source_path=doc.source_path, final_newline=doc.final_newline
    )
    log = MutationLog(
        strategy_id=sid,
        range_mode=strategy.range_mode,
        span_start=span.start,
        span_end=span.stop,
        target_line_indices=tuple(targets),
        lines_rewritten=rewritten,
        lines_deleted=deleted,
        lines_inserted=inserted,
        original_final_e=original_summary.final_e,
        mutated_final_e=simulate(mutated).final_e,
    )
    return mutated, log


@dataclass(frozen=True)
class VictimAssignment:
    path: str
    strategy_id: str


@dataclass(frozen=True)
class CompromisePlan:
    """Which files of a dataset get which strategy; the ground truth."""

    dataset_id: str
    seed: int
    victims: tuple[VictimAssignment, ...]

    def to_json_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "seed": self.seed,
            "victims": [
                {"path": v.path, "strategy": v.strategy_id}
                for v in sorted(self.victims, key=lambda v: v.path)
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CompromisePlan":
        return CompromisePlan(
            dataset_id=data["dataset_id"],
            seed=int(data["seed"]),
            victims=tuple(
                VictimAssignment(v["path"], v["strategy"]) for v in data["victims"]
            ),
        )


def plan_compromise(
    manifest: DatasetManifest, counts: Mapping[str, int], seed: int
) -> CompromisePlan:
    """Draw victims without replacement and assign strategies.

    ``counts`` maps strategy ids to how many files each one gets. The draw
    order is deterministic in ``seed``; a file receives at most one strategy.
    """
    for sid, n in counts.items():
        if sid not in STRATEGY_IDS:
            raise ValueError(f"unknown strategy id: {sid!r}")
        if n < 0:
            raise ValueError(f"negative count for {sid}: {n}")
    total = sum(counts.values())
    if total > len(manifest.entries):
        raise ValueError(
            f"cannot compromise {total} of {len(manifest.entries)} files"
        )
    rng = random.Random(seed)
    drawn = rng.sample([entry.path for entry in manifest.entries], total)
    victims = []
    cursor = 0
    for sid in STRATEGY_IDS:
        for _ in range(counts.get(sid, 0)):
            victims.append(VictimAssignment(drawn[cursor], sid))
            cursor += 1
    return CompromisePlan(
        dataset_id=manifest.dataset_id, seed=seed, victims=tuple(victims)
    )
