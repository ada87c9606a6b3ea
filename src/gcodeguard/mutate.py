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

``Strategy.default`` fixes each one's range: from the first layer on
(``full100``) for ID3, whose per-move effect is too small to need hiding,
else the middle half of the layer stack (``middle50``). Another range is
a library call.

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

from .gcode import GcodeDocument
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
    "check_victims",
    "plan_compromise",
    "format_minimal",
]

STRATEGY_IDS = ("ID1", "ID2", "ID3", "ID4", "ID5", "ID6")


class EmptyRangeError(ValueError):
    """The selected range contains nothing the strategy could touch."""


class RangeMode(enum.Enum):
    MIDDLE50 = "middle50"
    FULL100 = "full100"


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
        """The strategy on its documented range."""
        full = strategy_id == "ID3"
        return Strategy(strategy_id, RangeMode.FULL100 if full else RangeMode.MIDDLE50)


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


@dataclass(frozen=True)
class MutationLog:
    """What one strategy application actually did to one document."""

    strategy: str
    range_mode: RangeMode
    span: tuple[int, int]  # line indices [start, stop)
    targets: tuple[int, ...]  # indices of the targeted lines in the original
    lines_rewritten: int
    lines_deleted: int
    lines_inserted: int
    original_final_e: float
    mutated_final_e: float


def _command(code: str, params: tuple, comment: str | None = None) -> tuple:
    """The scan record of a rebuilt command line, canonically single-spaced."""
    parts = [code, *(letter + text for letter, text in params)]
    if comment is not None:
        parts.append(f";{comment}")
    return (" ".join(parts), code, params, comment, None)


def _moved_e(e: float, code: str | None, params: tuple) -> float:
    """The E register after one command: G0, G1 and G92 set it to their
    ``E`` parameter, as ``simulate`` folds it; other commands leave it."""
    if code in ("G0", "G1", "G92"):
        for letter, text in params:
            if letter == "E":
                return float(text)
    return e


def apply_strategy(doc: GcodeDocument, strategy: Strategy) -> tuple[GcodeDocument, MutationLog]:
    """Return a mutated copy of ``doc`` plus a log of the edit.

    Every fourth extruding move in the range is targeted (ID3 targets all of
    them). Raises ``EmptyRangeError`` when no move qualifies.
    """
    span = select_range(doc, strategy.range_mode)
    sid = strategy.strategy_id
    # E registers of the original and of the rewritten stream. Only ID3 reads
    # them; it sets ``new_e`` to each unrounded target it writes.
    orig_e = new_e = 0.0
    prev_e = None  # original E of the latest extruding move in range
    moves = 0
    targets: list[int] = []
    new_lines: list[tuple] = []
    for i, record in enumerate(doc.lines):
        _, code, params, comment, _ = record
        move_e = None
        if code == "G1" and i in span:
            move_e = next((float(text) for letter, text in params if letter == "E"), None)
        if move_e is not None:
            moves += 1
        if move_e is None or (sid != "ID3" and moves % 4):
            new_lines.append(record)
            new_e = _moved_e(new_e, code, params)
        else:
            targets.append(i)
            if sid in ("ID1", "ID2"):
                kept = tuple(q for q in params if q[0] not in ("E", "F"))
                new_lines.append(_command("G0", kept, comment))
                if sid == "ID2":
                    new_lines.append(_command("G1", (("E", format_minimal(move_e)),)))
            elif sid != "ID6":  # ID6 drops the target
                if sid == "ID3":
                    new_e += (move_e - orig_e) / 2.0
                    text = f"{new_e:.5f}"
                else:
                    # Targets are 4 moves apart, so the previous move exists
                    # and was not itself rewritten.
                    text = format_minimal(prev_e if sid == "ID4" else prev_e + 0.0001)
                rewritten = tuple(("E", text) if q[0] == "E" else q for q in params)
                new_lines.append(_command(code, rewritten, comment))
        orig_e = _moved_e(orig_e, code, params)
        if move_e is not None:
            prev_e = move_e
    if not targets:
        raise EmptyRangeError(f"{sid}: no extruding moves to target in range")

    mutated_e = 0.0
    for _, code, params, _, _ in new_lines:
        mutated_e = _moved_e(mutated_e, code, params)
    mutated = GcodeDocument(tuple(new_lines), doc.source_path, doc.final_newline)
    log = MutationLog(
        strategy=sid,
        range_mode=strategy.range_mode,
        span=(span.start, span.stop),
        targets=tuple(targets),
        lines_rewritten=0 if sid == "ID6" else len(targets),
        lines_deleted=len(targets) if sid == "ID6" else 0,
        lines_inserted=len(targets) if sid == "ID2" else 0,
        original_final_e=orig_e,
        mutated_final_e=mutated_e,
    )
    return mutated, log


@dataclass(frozen=True)
class VictimAssignment:
    path: str
    strategy: str


@dataclass(frozen=True)
class CompromisePlan:
    """Which files of a dataset get which strategy; the ground truth."""

    dataset_id: str
    seed: int
    victims: tuple[VictimAssignment, ...]

    @staticmethod
    def from_json_dict(data: dict) -> "CompromisePlan":
        plan = CompromisePlan(
            dataset_id=data["dataset_id"],
            seed=int(data["seed"]),
            victims=tuple(
                VictimAssignment(v["path"], v["strategy"]) for v in data["victims"]
            ),
        )
        seen: set[str] = set()
        for victim in plan.victims:
            if victim.strategy not in STRATEGY_IDS:
                raise ValueError(f"unknown strategy in victims: {victim.strategy!r}")
            if victim.path in seen:
                raise ValueError(f"victim path listed twice: {victim.path!r}")
            seen.add(victim.path)
        return plan


def check_victims(counts: Mapping[str, int], file_count: int) -> None:
    """Raise ``ValueError`` unless ``counts`` maps known strategy ids to
    counts >= 0 that add up to at most ``file_count``."""
    for sid, n in counts.items():
        if sid not in STRATEGY_IDS:
            raise ValueError(f"unknown strategy in victims: {sid!r}")
        if n < 0:
            raise ValueError(f"negative count for {sid}: {n}")
    total = sum(counts.values())
    if total > file_count:
        raise ValueError(f"cannot compromise {total} of {file_count} files")


def plan_compromise(
    manifest: DatasetManifest, counts: Mapping[str, int], seed: int
) -> CompromisePlan:
    """Draw victims without replacement and assign strategies.

    ``counts`` maps strategy ids to how many files each one gets and must
    pass ``check_victims``. The draw order is deterministic in ``seed``; a
    file receives at most one strategy. Victims are sorted by path, as
    ``truth.json`` lists them.
    """
    check_victims(counts, len(manifest.entries))
    rng = random.Random(seed)
    drawn = rng.sample([entry.path for entry in manifest.entries], sum(counts.values()))
    victims = []
    cursor = 0
    for sid in STRATEGY_IDS:
        for _ in range(counts.get(sid, 0)):
            victims.append(VictimAssignment(drawn[cursor], sid))
            cursor += 1
    victims.sort(key=lambda v: v.path)
    return CompromisePlan(
        dataset_id=manifest.dataset_id, seed=seed, victims=tuple(victims)
    )
