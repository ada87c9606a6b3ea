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

``scan`` is the one line scanner. It makes every check on a file (ASCII,
line ends, grammar, ``M83``, duplicate letters, increasing layer marks) and
yields one plain tuple per line. ``parse_document`` builds ``GcodeLine``
objects from those tuples for code that edits or re-serializes a file.
``simulate`` is the one fold that counts: it takes either a document or the
tuples of ``scan`` directly, so reading features off a file builds no
document at all.

Only absolute extrusion is supported. ``M83`` (relative extrusion) is
rejected at scan time rather than silently misinterpreted.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "MalformedLineError",
    "MalformedFileError",
    "LineKind",
    "Param",
    "GcodeLine",
    "GcodeDocument",
    "PrinterState",
    "PrintSummary",
    "parse_line",
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
        self.text = text
        self.line_index = line_index


class MalformedFileError(ValueError):
    """A document-level failure: undecodable bytes or an unparseable line."""


class LineKind(enum.Enum):
    COMMAND = "command"
    COMMENT = "comment"
    BLANK = "blank"


class Param(NamedTuple):
    """One command parameter, e.g. ``X12.5`` -> ``Param("X", "12.5", 12.5)``.

    ``text`` is the exact numeric token from the source (or the token chosen
    when a line is rebuilt); ``value`` is its float interpretation.
    """

    letter: str
    text: str
    value: float

    @property
    def decimals(self) -> int:
        return count_decimals(self.text)


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


@dataclass(frozen=True, slots=True)
class GcodeLine:
    """One source line plus its parse.

    ``raw_text`` has no trailing newline and is authoritative for
    serialization. ``params`` is empty for comments and blanks. ``comment``
    holds the text after ``;`` for both comment lines and inline command
    comments (without the semicolon).
    """

    raw_text: str
    kind: LineKind
    code: str | None = None
    params: tuple[Param, ...] = ()
    comment: str | None = None

    def param(self, letter: str) -> Param | None:
        for p in self.params:
            if p.letter == letter:
                return p
        return None

    @property
    def layer_number(self) -> int | None:
        """Layer index when this is a ``;LAYER:<n>`` marker comment."""
        if self.kind is not LineKind.COMMENT or self.comment is None:
            return None
        return _layer_of(self.comment)


def render_command(code: str, params: Iterable[Param], comment: str | None = None) -> str:
    """Canonical text for a rebuilt command line."""
    parts = [code]
    parts.extend(f"{p.letter}{p.text}" for p in params)
    if comment is not None:
        parts.append(f";{comment}")
    return " ".join(parts)


def make_command(
    code: str,
    params: Iterable[Param] = (),
    comment: str | None = None,
) -> GcodeLine:
    """Build a command line from parts; raw text is the canonical rendering.

    Lines carry no index: a line's index is its position in a document.
    """
    params = tuple(params)
    return GcodeLine(
        raw_text=render_command(code, params, comment),
        kind=LineKind.COMMAND,
        code=code,
        params=params,
        comment=comment,
    )


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


def _line_from_record(record: tuple) -> GcodeLine:
    raw_text, kind, code, params, comment, _ = record
    return GcodeLine(
        raw_text=raw_text,
        kind=kind,
        code=code,
        params=tuple(Param(letter, text, float(text)) for letter, text in params),
        comment=comment,
    )


def parse_line(text: str, line_index: int = 0) -> GcodeLine:
    """Parse one line (no newline characters allowed) into a ``GcodeLine``.

    ``line_index`` (0-based) only locates the line in error messages.

    Raises
    ------
    MalformedLineError
        On grammar violations, duplicate parameter letters, or ``M83``.
    """
    if "\n" in text or "\r" in text:
        raise MalformedLineError("line contains a newline", text, line_index)
    return _line_from_record(_scan_line(text, line_index))


@dataclass(frozen=True, slots=True)
class GcodeDocument:
    """An ordered, immutable sequence of parsed lines.

    ``layer_marks`` pairs each ``;LAYER:<n>`` comment with its line index, in
    document order. ``final_newline`` records whether the source ended with a
    newline so serialization can reproduce it.
    """

    lines: tuple[GcodeLine, ...]
    layer_marks: tuple[tuple[int, int], ...] = ()
    source_path: str | None = None
    final_newline: bool = True

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[GcodeLine]:
        return iter(self.lines)

    @property
    def layer_count(self) -> int:
        return len(self.layer_marks)

    def commands(self, *codes: str) -> Iterator[GcodeLine]:
        """Iterate command lines, optionally restricted to the given codes."""
        wanted = set(codes) or None
        for line in self.lines:
            if line.kind is LineKind.COMMAND and (wanted is None or line.code in wanted):
                yield line

    @staticmethod
    def from_lines(
        lines: Iterable[GcodeLine],
        source_path: str | None = None,
        final_newline: bool = True,
    ) -> "GcodeDocument":
        """Assemble a document from lines in order, recomputing its layer marks."""
        lines = tuple(lines)
        marks = []
        for i, line in enumerate(lines):
            layer = line.layer_number
            if layer is not None:
                marks.append((i, layer))
        return GcodeDocument(
            lines=lines,
            layer_marks=tuple(marks),
            source_path=source_path,
            final_newline=final_newline,
        )


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
    """Parse a whole file into a document of ``GcodeLine`` objects.

    Accepts what ``scan`` accepts and raises what it raises.
    """
    lines = []
    marks = []
    for i, record in enumerate(scan(data, source_path)):
        lines.append(_line_from_record(record))
        if record[5] is not None:
            marks.append((i, record[5]))
    return GcodeDocument(
        lines=tuple(lines),
        layer_marks=tuple(marks),
        source_path=source_path,
        final_newline=not data or data.endswith(b"\n" if isinstance(data, bytes) else "\n"),
    )


def serialize(doc: GcodeDocument) -> bytes:
    """Render the document back to bytes.

    For a document straight out of ``parse_document`` this is the inverse of
    parsing, byte for byte. Rebuilt lines contribute their canonical text.
    """
    body = "\n".join(line.raw_text for line in doc.lines)
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

    def apply(self, code: str | None, params: Iterable[tuple]) -> None:
        """Apply one command given its code and parameters.

        Each parameter is a sequence whose first two items are its letter
        and number text: a scan ``(letter, text)`` pair or a ``Param``.
        """
        if code not in ("G0", "G1", "G92"):
            return
        for p in params:
            letter = p[0]
            if letter == "X":
                self.x = float(p[1])
            elif letter == "Y":
                self.y = float(p[1])
            elif letter == "Z":
                self.z = float(p[1])
            elif letter == "E":
                e = float(p[1])
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


def _records(doc: GcodeDocument) -> Iterator[tuple]:
    """A document's lines as ``scan`` records."""
    for line in doc.lines:
        yield (
            line.raw_text,
            line.kind,
            line.code,
            tuple((p.letter, p.text) for p in line.params),
            line.comment,
            line.layer_number,
        )


def simulate(source: GcodeDocument | Iterable[tuple]) -> PrintSummary:
    """Fold a document, or the records of ``scan``, into a ``PrintSummary``.

    The registers advance through a fresh ``PrinterState``. Bounds cover
    only axis values named explicitly on G0/G1 moves; modal carry-over never
    widens them. The E-decimal histogram counts the textual decimal places
    of every E parameter on any command, G92 included.
    """
    records = _records(source) if isinstance(source, GcodeDocument) else source
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
