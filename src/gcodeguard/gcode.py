"""Scan, parse, serialize, and simulate a pragmatic g-code subset.

The accepted format is line-oriented ASCII. Each line is one of:

    command  ::=  CODE (" " PARAM)* (" "* ";" text)?      "G1 X5.0 Y1.0 E2.00000"
    comment  ::=  ";" text                                 ";LAYER:12"
    blank    ::=  whitespace only

``CODE`` is an uppercase letter followed by an unsigned integer (``G0``,
``G1``, ``G92``, ``M82``, ...). ``PARAM`` is a single uppercase letter
directly followed by a signed decimal number. The numeric text of every
parameter is preserved verbatim, so a document that is parsed and then
serialized without modification reproduces its input byte for byte.
Lines rebuilt after an edit are rendered canonically: code and parameters
separated by single spaces, parameters in their original order.

``scan`` is the one line scanner and its record the one line type. It
makes every check on a file (ASCII, line ends, grammar, ``M83``, duplicate
letters, increasing layer marks) and yields one plain tuple per line.
A ``GcodeDocument`` is those records held in order, for code that edits or
re-serializes a file. ``simulate`` is the one fold that counts: it takes any
iterable of records, a document or ``scan`` itself, so reading features off
a file builds no document at all.

Only absolute extrusion is supported. ``M83`` (relative extrusion) is
rejected at scan time rather than silently misinterpreted.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "MalformedLineError",
    "MalformedFileError",
    "LineKind",
    "GcodeDocument",
    "PrinterState",
    "PrintSummary",
    "scan",
    "parse_document",
    "serialize",
    "simulate",
    "count_decimals",
]


class MalformedLineError(ValueError):
    """A single line does not match the accepted grammar."""

    def __init__(self, message: str, text: str = "", line_index: int | None = None):
        # line_index is 0-based like document line lists; messages are 1-based.
        location = f" (line {line_index + 1})" if line_index is not None else ""
        super().__init__(f"{message}{location}: {text!r}")
        self.message = message
        self.text = text
        self.line_index = line_index

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not the formatted text,
        # so a copy sent between processes has the same message.
        return type(self), (self.message, self.text, self.line_index)


class MalformedFileError(ValueError):
    """A document-level failure: undecodable bytes or an unparseable line."""


class LineKind(enum.Enum):
    COMMAND = "command"
    COMMENT = "comment"
    BLANK = "blank"


# Number tokens are plain decimals: no exponents, no leading letters, at most
# one dot. float() alone would admit "1e3", "nan" and "1_0", so syntax is
# checked by regex and float() is used only for the value.
_COMMAND_RE = re.compile(
    r"(?P<code>[A-Z][0-9]+)"
    r"(?P<params>(?:[ \t]+[A-Z][-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))*)"
    r"[ \t]*(?:;(?P<comment>.*))?\Z"
)
_PARAM_RE = re.compile(r"([A-Z])([-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))")
_LAYER_MARK_RE = re.compile(r"LAYER:([0-9]+)\Z")


def count_decimals(number_text: str) -> int:
    """Number of digits after the decimal point in a numeric token.

    ``"2.00000"`` -> 5, ``"2.0"`` -> 1, ``"2"`` -> 0. The count is textual:
    trailing zeros are significant here even though they do not change the
    float value.
    """
    dot = number_text.find(".")
    return 0 if dot < 0 else len(number_text) - dot - 1


def _layer_of(comment: str) -> int | None:
    m = _LAYER_MARK_RE.fullmatch(comment.strip())
    return int(m.group(1)) if m else None


def _scan_line(text: str, line_index: int) -> tuple:
    """The scan record of one line without newline characters.

    Raises ``MalformedLineError`` on grammar violations, ``M83`` and
    duplicate parameter letters.
    """
    stripped = text.strip()
    if not stripped:
        return (text, LineKind.BLANK, None, (), None, None)
    if stripped[0] == ";":
        comment = stripped[1:]
        return (text, LineKind.COMMENT, None, (), comment, _layer_of(comment))
    m = _COMMAND_RE.fullmatch(stripped)
    if m is None:
        raise MalformedLineError("unrecognized line syntax", text, line_index)
    code, param_text, comment = m.groups()
    if code == "M83":
        raise MalformedLineError(
            "relative extrusion (M83) is outside the supported subset", text, line_index
        )
    params = tuple(_PARAM_RE.findall(param_text))
    if len(dict(params)) != len(params):
        raise MalformedLineError("duplicate parameter letter", text, line_index)
    return (text, LineKind.COMMAND, code, params, comment, None)


@dataclass(frozen=True, slots=True)
class GcodeDocument:
    """A file's ``scan`` records, in order.

    ``final_newline`` records whether the source ended with a newline so
    serialization can reproduce it.
    """

    lines: tuple[tuple, ...]
    source_path: str | None = None
    final_newline: bool = True

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.lines)

    @property
    def layer_marks(self) -> tuple[tuple[int, int], ...]:
        """``(line index, layer)`` of each ``;LAYER:<n>`` mark, in order."""
        return tuple((i, r[5]) for i, r in enumerate(self.lines) if r[5] is not None)


def scan(data: bytes | str, source_path: str | None = None) -> Iterator[tuple]:
    """Check a whole file and yield one plain record per line, in order.

    A record is ``(raw_text, kind, code, params, comment, layer)``: ``params``
    is ``((letter, text), ...)`` with each number's source text, ``code`` is
    ``None`` for comments and blanks, and ``layer`` is the number of a
    ``;LAYER:<n>`` mark, else ``None``. Accepts bytes or str; either must be
    ASCII. CRLF line ends become LF. Raises ``MalformedFileError`` carrying
    the first offending line, if any, once iteration reaches it.
    """
    name = source_path or "<data>"
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedFileError(f"{name}: not ASCII: {exc}") from exc
    elif data.isascii():
        text = data
    else:
        raise MalformedFileError(f"{name}: not ASCII")
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        raise MalformedFileError(f"{name}: bare carriage return")

    raw_lines = text.split("\n")
    if raw_lines[-1] == "":
        raw_lines.pop()
    last_layer = None
    for i, raw in enumerate(raw_lines):
        try:
            record = _scan_line(raw, i)
        except MalformedLineError as exc:
            raise MalformedFileError(f"{name}: {exc}") from exc
        layer = record[5]
        if layer is not None:
            if last_layer is not None and layer <= last_layer:
                raise MalformedFileError(
                    f"{name}: layer markers not increasing "
                    f"({last_layer} then {layer} at line {i + 1})"
                )
            last_layer = layer
        yield record


def parse_document(data: bytes | str, source_path: str | None = None) -> GcodeDocument:
    """Scan a whole file into a document.

    Accepts what ``scan`` accepts and raises what it raises.
    """
    return GcodeDocument(
        lines=tuple(scan(data, source_path)),
        source_path=source_path,
        final_newline=not data or data.endswith(b"\n" if isinstance(data, bytes) else "\n"),
    )


def serialize(doc: GcodeDocument) -> bytes:
    """Render the document back to bytes.

    For a document straight out of ``parse_document`` this is the inverse of
    parsing, byte for byte. Rebuilt lines contribute their canonical text.
    """
    body = "\n".join(record[0] for record in doc.lines)
    if doc.lines and doc.final_newline:
        body += "\n"
    return body.encode("ascii")


@dataclass(slots=True)
class PrinterState:
    """Mutable machine registers, advanced one command at a time by ``apply``.

    ``apply`` is the one definition of how commands move the registers.
    Extrusion is absolute (M82): a G1 with E contributes
    ``max(0, E_target - E_register)`` of filament, then the register jumps to
    the target. G0 and G92 set the named registers without extruding; every
    other command leaves them alone.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    e: float = 0.0
    extruded: float = 0.0

    def apply(self, code: str | None, params: Iterable[tuple[str, str]]) -> None:
        """Apply one command given its code and ``(letter, text)`` parameters."""
        if code not in ("G0", "G1", "G92"):
            return
        for letter, text in params:
            if letter == "X":
                self.x = float(text)
            elif letter == "Y":
                self.y = float(text)
            elif letter == "Z":
                self.z = float(text)
            elif letter == "E":
                e = float(text)
                if code == "G1":
                    self.extruded += max(0.0, e - self.e)
                self.e = e


@dataclass(frozen=True, slots=True)
class PrintSummary:
    """Aggregates produced by one simulation pass over a document."""

    final_e: float
    total_extruded: float
    bounds: dict[str, tuple[float, float]]
    layer_count: int
    command_counts: dict[str, int]
    comment_lines: int
    blank_lines: int
    total_lines: int
    e_decimal_histogram: dict[int, int]


def simulate(records: Iterable[tuple]) -> PrintSummary:
    """Fold ``scan`` records, or a document of them, into a ``PrintSummary``.

    The registers advance through a fresh ``PrinterState``. Bounds cover
    only axis values named explicitly on G0/G1 moves; modal carry-over never
    widens them. The E-decimal histogram counts the textual decimal places
    of every E parameter on any command, G92 included.
    """
    state = PrinterState()
    counts: dict[str, int] = {}
    axes: dict[str, list[str]] = {"X": [], "Y": [], "Z": []}
    histogram: dict[int, int] = {}
    comments = 0
    blanks = 0
    layers = 0

    for _, kind, code, params, _, layer in records:
        if code is None:
            if kind is LineKind.BLANK:
                blanks += 1
            else:
                comments += 1
                if layer is not None:
                    layers += 1
            continue
        counts[code] = counts.get(code, 0) + 1
        if not params:
            continue
        move = code == "G0" or code == "G1"
        for letter, text in params:
            if letter == "E":
                d = count_decimals(text)
                histogram[d] = histogram.get(d, 0) + 1
            elif move and letter in axes:
                axes[letter].append(text)
        state.apply(code, params)

    bounds = {}
    for axis, texts in axes.items():
        if texts:
            values = [float(t) for t in texts]
            bounds[axis] = (min(values), max(values))
    return PrintSummary(
        final_e=state.e,
        total_extruded=state.extruded,
        bounds=bounds,
        layer_count=layers,
        command_counts=counts,
        comment_lines=comments,
        blank_lines=blanks,
        total_lines=comments + blanks + sum(counts.values()),
        e_decimal_histogram=histogram,
    )
