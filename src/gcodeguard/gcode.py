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
letters, increasing layer marks) and yields one plain tuple per line,
``(raw_text, code, params, comment, layer)``, and it is the one place that
names a fault, in a ``MalformedFileError``. A ``GcodeDocument`` is those
records held in order, for code that edits or re-serializes a file.

``simulate`` is the one fold that counts. It folds a file's bytes in
slices of whole lines with compiled regular expressions and numpy, never
line by line in Python. A line's shape, its text with the comment cut and
each digit made 0, decides its grammar, its repeated letters and its E
decimal places, so those are checked once per distinct shape in a slice.
A command's code is read from the bytes as one integer, its letter and up
to three digits (a longer code by its text), and a slice's numbers in one
float pass. When a check fires, ``simulate`` runs ``scan``, which raises
the first fault's message. Text, and records (a document or ``scan``)
joined back into text, are encoded as UTF-8 once and folded the same way.

Only absolute extrusion is supported. ``M83`` (relative extrusion) is
rejected at scan time rather than silently misinterpreted.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "MalformedFileError",
    "GcodeDocument",
    "PrintSummary",
    "scan",
    "parse_document",
    "serialize",
    "simulate",
]


class MalformedFileError(ValueError):
    """A document-level failure: undecodable bytes or an unparseable line."""


# The grammar's fragments, written once: the line scanner's patterns and the
# slice fold's are built from them. Number tokens are plain decimals: no
# exponents, no leading letters, at most one dot. float() alone would admit
# "1e3", "nan" and "1_0", so syntax is checked by regex and float() is used
# only for the value.
_CODE = r"[A-Z][0-9]+"
_NUMBER = r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_PARAMS = rf"(?:[ \t]+[A-Z]{_NUMBER})*"
_LAYER_MARK = r"LAYER:([0-9]+)"
# What str.strip() removes from an ASCII line, line ends aside.
_WS = r"[\t\x0b\x0c\x1c-\x1f ]"

_COMMAND_RE = re.compile(
    rf"(?P<code>{_CODE})(?P<params>{_PARAMS})[ \t]*(?:;(?P<comment>.*))?\Z"
)
_PARAM_RE = re.compile(rf"([A-Z])({_NUMBER})")
_LAYER_MARK_RE = re.compile(rf"{_LAYER_MARK}\Z")

# The slice fold reads ASCII bytes: a newline, then whole lines that each end
# in one. A slice is about this many bytes, so that each pass's cost per call
# is small and a slice's working set stays near 1 MB whatever the file size.
_SLICE_BYTES = 1 << 16
# A line's shape is its text with its comment cut to the ";" and each digit
# made 0. Every class of the grammar holds all ten digits or none, so a line is
# valid exactly when its shape is, and its letters and E places are its shape's.
_COMMENT_RE = re.compile(rb";[^\n]*")
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"0" * 9)
# One valid line, at the start of a line. Removing every match from framed
# shapes leaves the first newline alone exactly when every shape is valid. A
# line parses one way only, so one that fails does so in linear time. (One
# repeated group over all lines would keep backtracking state for each line.)
_VALID_LINE_RE = re.compile(
    rf"(?<=\n){_WS}*(?:;[^\n]*|{_CODE}{_PARAMS}(?:[ \t]*;[^\n]*|{_WS}*))?\n".encode()
)
# One match per framed valid shape: "E" and the decimal places of its E
# parameter, or two empty groups. An E code is its line's first letter.
_E_PLACES_RE = re.compile(rb"\n[^A-Z;\n]*(?:[A-Z][^E;\n]*(E)?[-+]?0*\.?(0*))?")
_LAYER_LINE_RE = re.compile(rf"\n{_WS}*;{_WS}*{_LAYER_MARK}{_WS}*(?=\n)".encode())
# Leaves each token's number as a whitespace-separated word, comments cut.
_NUMBERS_ONLY = bytes.maketrans(
    bytes(range(ord("A"), ord("Z") + 1)) + b"\x1c\x1d\x1e\x1f;", b" " * 31
)


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
        return tuple((i, r[4]) for i, r in enumerate(self.lines) if r[4] is not None)


def scan(data: bytes | str, source_path: str | None = None) -> Iterator[tuple]:
    """Check a whole file and yield one plain record per line, in order.

    A record is ``(raw_text, code, params, comment, layer)``: ``code`` is
    ``None`` on a comment or blank line, ``params`` is ``((letter, text),
    ...)`` with each number's source text, ``comment`` is the text after the
    ``;`` (``None`` when there is none, so a blank line has neither code nor
    comment), and ``layer`` is the number of a ``;LAYER:<n>`` mark, else
    ``None``. Accepts bytes or str; either must be ASCII. CRLF line ends
    become LF. Raises ``MalformedFileError`` naming the first offending
    line, if any, once iteration reaches it.
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
    last_layer = -1
    for i, raw in enumerate(raw_lines):
        stripped = raw.strip()
        if not stripped:
            yield (raw, None, (), None, None)
            continue
        if stripped[0] == ";":
            comment = stripped[1:]
            m = _LAYER_MARK_RE.fullmatch(comment.strip())
            layer = None
            if m:
                try:
                    layer = int(m.group(1))
                except ValueError:  # more digits than int() converts
                    raise MalformedFileError(f"{name}: layer number too long (line {i + 1})")
                if layer <= last_layer:
                    raise MalformedFileError(
                        f"{name}: layer markers not increasing "
                        f"({last_layer} then {layer} at line {i + 1})"
                    )
                last_layer = layer
            yield (raw, None, (), comment, layer)
            continue
        m = _COMMAND_RE.fullmatch(stripped)
        if m is None:
            fault = "unrecognized line syntax"
        elif m["code"] == "M83":
            fault = "relative extrusion (M83) is outside the supported subset"
        else:
            params = tuple(_PARAM_RE.findall(m["params"]))
            if len(dict(params)) == len(params):
                yield (raw, m["code"], params, m["comment"], None)
                continue
            fault = "duplicate parameter letter"
        raise MalformedFileError(f"{name}: {fault} (line {i + 1}): {raw!r}")


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


@dataclass(frozen=True, slots=True)
class PrintSummary:
    """Aggregates produced by one simulation pass over a document."""

    final_e: float
    total_extruded: float
    bounds: dict[str, tuple[float, float]]
    layer_count: int
    command_counts: dict[str, int]
    total_lines: int
    e_decimal_histogram: dict[int, int]


def simulate(
    source: bytes | str | Iterable[tuple], source_path: str | None = None
) -> PrintSummary:
    """Fold a file's bytes or text, or its ``scan`` records, into a ``PrintSummary``.

    Records, a document or ``scan`` itself, are joined back into text.
    Extrusion is absolute (M82): G0, G1 and G92 set the E register to their
    E parameter, and a G1 adds ``max(0, E - register)`` to the extruded
    total first. Bounds cover only axis values named explicitly on G0/G1
    moves; modal carry-over never widens them. The
    E-decimal histogram counts the textual decimal places of every E
    parameter on any command, G92 included. Raises what ``scan`` raises,
    naming ``source_path``.
    """
    if isinstance(source, (bytes, str)):
        data = source
    else:
        data = "\n".join([record[0] for record in source] + [""])
    # Text is folded as UTF-8, lone surrogates too, so that any non-ASCII
    # character fails a slice check and scan names it.
    summary = _fold(data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass"))
    if summary is None:
        list(scan(data, source_path))  # raises the first fault's message
        raise RuntimeError(f"{source_path or '<data>'}: slice checks fired on a file scan accepts")
    return summary


def _whole_line_slices(data: bytes) -> Iterator[bytes]:
    """``data`` cut after a newline about every ``_SLICE_BYTES``; a longer
    line is a slice of its own."""
    start = 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + _SLICE_BYTES)
        if end < 0:
            end = data.find(b"\n", start + _SLICE_BYTES)
        end = len(data) if end < 0 else end + 1
        yield data[start:end]
        start = end


def _tokens(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``text``, two bytes longer, and each token's position, line and whether it is a
    parameter, not its line's code, in grammar text, comments cut: a letter starts one."""
    chars = np.frombuffer(text + b"\n\n", np.uint8)
    tokens = np.flatnonzero((chars >= ord("A")) & (chars <= ord("Z")))
    line = np.searchsorted(np.flatnonzero(chars == ord("\n")), tokens)
    return chars, tokens, line, np.diff(line, prepend=-1) == 0


# A code of at most three digits as one integer: a byte per character, zero-filled.
_G0, _G1, _G92 = np.array([b"G0", b"G1", b"G92"], "S4").view(">u4").tolist()
_CODE_AT_RE = re.compile(_CODE.encode())


def _fold(data: bytes) -> PrintSummary | None:
    """``simulate``'s fold, or None when a check fires: bytes that are not
    ASCII, a bare carriage return, a line off the grammar, ``M83``, a repeated
    parameter letter or a layer number that is too long or does not increase."""
    counts: Counter[bytes] = Counter()
    histogram: Counter[int] = Counter()
    bounds: dict[str, tuple[float, float]] = {}
    lines = layers = 0
    last_layer = -1
    e = extruded = 0.0
    for piece in _whole_line_slices(data):
        chunk = b"\n" + piece
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
        if b"\r" in chunk or not chunk.isascii():
            return None
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        text = _COMMENT_RE.sub(b";", chunk)
        # The slice's own table of shapes: its size is bounded by the slice's.
        shapes = Counter(text[1:-1].translate(_ZERO_DIGITS).split(b"\n"))
        framed = b"\n" + b"\n".join(shapes) + b"\n"
        # The grammar first: the token arrays assume it.
        if _VALID_LINE_RE.sub(b"", framed) != b"\n":
            return None
        chars, tokens, line, param = _tokens(framed)
        keys = np.sort((line * 128 + chars[tokens])[param])
        if (keys[1:] == keys[:-1]).any():
            return None
        places = _E_PLACES_RE.findall(framed, 0, len(framed) - 1)
        for (has_e, digits), n in zip(places, shapes.values()):
            if has_e:
                histogram[len(digits)] += n
        lines += chunk.count(b"\n") - 1
        try:
            marks = [last_layer, *map(int, _LAYER_LINE_RE.findall(chunk))]
        except ValueError:  # more digits than int() converts
            return None
        if not all(map(operator.lt, marks, marks[1:])):
            return None
        layers += len(marks) - 1
        last_layer = marks[-1]

        chars, tokens, _, param = _tokens(text)
        letters = chars[tokens]
        # Each command line's code, its first token: its letter and the next four
        # bytes (the last line's too), each digit kept up to the first non-digit.
        heads = chars[tokens[~param, None] + np.arange(5)]
        digits = np.logical_and.accumulate(heads[:, 1:] - ord("0") < 10, axis=1)
        heads[:, 1:4] *= digits[:, :3]
        keys = heads[:, :4].copy().view(">u4")[:, 0]
        long = digits[:, 3]  # four digits or more: counted by its text
        found, n = np.unique(keys[~long], return_counts=True)
        counts.update(dict(zip(found.view("S4").tolist(), n.tolist())))
        counts.update(_CODE_AT_RE.match(text, at)[0] for at in tokens[~param][long].tolist())
        codes = keys[np.cumsum(~param) - 1]  # each token's line code
        g1 = codes == _G1
        move = param & (g1 | (codes == _G0))
        registered = param & (letters == ord("E")) & (move | (codes == _G92))
        # One float pass: the E targets, and the X, Y and Z (the last letters) of moves.
        wanted = registered | (move & (letters >= ord("X")))
        numbers = compress(text.translate(_NUMBERS_ONLY).split(), wanted.tolist())
        values = np.fromiter(map(float, numbers), float)
        letters = letters[wanted]

        register = np.append(e, values[letters == ord("E")])
        with np.errstate(invalid="ignore"):  # inf - inf, as the loop gives nan
            steps = np.diff(register)
        steps = np.where(g1[registered] & (steps > 0.0), steps, 0.0)
        # accumulate adds in order, so the total has the loop's bits.
        extruded = np.add.accumulate(np.append(extruded, steps))[-1]
        e = register[-1]
        for axis in "XYZ":
            # The bounds so far, then this slice's values: argmin and argmax,
            # like min and max, keep the first of equal values.
            found = np.append(bounds.get(axis, ()), values[letters == ord(axis)])
            if found.size:
                bounds[axis] = tuple(found[[found.argmin(), found.argmax()]].tolist())

    if b"M83" in counts:
        return None
    return PrintSummary(
        final_e=float(e),
        total_extruded=float(extruded),
        bounds=bounds,
        layer_count=layers,
        command_counts={code.decode(): n for code, n in counts.items()},
        total_lines=lines,
        e_decimal_histogram=dict(+histogram),
    )
