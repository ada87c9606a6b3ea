"""Parser, serializer, and simulator behavior."""

from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcodeguard import gcode
from gcodeguard.gcode import (
    GcodeDocument,
    PrintSummary,
    MalformedFileError,
    parse_document,
    scan,
    serialize,
    simulate,
)
from gcodeguard.features import extract
from gcodeguard.mutate import (
    STRATEGY_IDS,
    EmptyRangeError,
    RangeMode,
    Strategy,
    _command,
    apply_strategy,
)
from gcodeguard.synthgen import build_specimen, preset_spec

from conftest import doc_from


def scan_one(text: str) -> tuple:
    """The scan record of a one-line file."""
    (record,) = scan(text)
    return record


class TestParseLine:
    """One line through ``scan``: the record's code, params and comment."""

    def test_command_with_params(self):
        _, code, params, _, _ = scan_one("G1 X5 Y1 E2")
        assert code == "G1"
        assert params == (("X", "5"), ("Y", "1"), ("E", "2"))

    def test_empty_is_blank(self):
        assert scan_one("\n") == ("", None, (), None, None)

    def test_layer_marker_comment(self):
        _, code, _, comment, layer = scan_one(";LAYER:12")
        assert (code, comment) == (None, "LAYER:12")
        assert layer == 12

    def test_plain_comment_has_no_layer(self):
        assert scan_one(";TYPE:SKIN")[4] is None

    def test_param_text_preserved(self):
        params = scan_one("G1 E12.30000")[2]
        assert params == (("E", "12.30000"),)
        assert simulate("G1 E12.30000\n").e_decimal_histogram == {5: 1}

    def test_trailing_comment(self):
        _, code, _, comment, _ = scan_one("G1 X1 ;move")
        assert code == "G1"
        assert comment == "move"

    def test_negative_and_bare_dot_values(self):
        params = scan_one("G1 X-1.5 Y.25")[2]
        assert [(letter, float(text)) for letter, text in params] == [("X", -1.5), ("Y", 0.25)]

    @pytest.mark.parametrize("bad", ["G1 X", "G1 5X", "G", "XG1 1", "G1 X1 X2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedFileError, match=r"^<data>: .+ \(line 1\): "):
            scan_one(bad)

    def test_relative_extrusion_rejected(self):
        with pytest.raises(MalformedFileError, match="M83"):
            scan_one("M83")

    def test_newline_rejected(self):
        # A carriage return that does not end a CRLF pair is not a line end.
        with pytest.raises(MalformedFileError, match="bare carriage return"):
            scan_one("G1 X1\rG1 X2")


class TestParseDocument:
    def test_three_command_snippet(self):
        doc = doc_from("G1 X1 Y1 E1\nG1 X5 Y1 E2\nG1 X5 Y5 E3\n")
        assert len(doc.lines) == 3
        assert all(record[1] == "G1" for record in doc.lines)

    def test_empty_file(self):
        doc = parse_document(b"")
        assert len(doc.lines) == 0
        assert doc.layer_marks == ()

    def test_layer_marks_extracted(self):
        doc = doc_from(";LAYER:0\nG1 X1 E1\n;LAYER:1\nG1 X2 E2\n")
        assert doc.layer_marks == ((0, 0), (2, 1))

    def test_nonmonotonic_layers_rejected(self):
        with pytest.raises(MalformedFileError):
            parse_document(b";LAYER:1\n;LAYER:0\n")

    def test_error_carries_line_index(self):
        with pytest.raises(MalformedFileError, match="line 2"):
            parse_document(b"G1 X1\nnot gcode\n")

    def test_crlf_normalized(self):
        doc = parse_document(b"G1 X1\r\nG1 X2\r\n")
        assert serialize(doc) == b"G1 X1\nG1 X2\n"

    def test_non_ascii_rejected(self):
        with pytest.raises(MalformedFileError):
            parse_document("G1 X1 ;µ\n".encode("utf-8"))

    def test_non_ascii_str_rejected(self):
        with pytest.raises(MalformedFileError, match=r"^part\.gcode: not ASCII$"):
            parse_document("G1 X1 ;µ\n", source_path="part.gcode")


class TestSerialize:
    def test_single_blank_line(self):
        doc = doc_from("\n")
        assert serialize(doc) == b"\n"

    def test_round_trip_generated(self, tiny_doc):
        data = serialize(tiny_doc)
        assert serialize(parse_document(data)) == data

    def test_mutated_line_is_only_difference(self):
        original = b"G1 X1 Y1 E1\nG1 X5 Y1 E2\nG1 X5 Y5 E3\n"
        doc = parse_document(original)
        swapped = _command("G0", tuple(p for p in doc.lines[1][2] if p[0] != "E"))
        mutated = GcodeDocument(
            (doc.lines[0], swapped, doc.lines[2]), doc.source_path, doc.final_newline
        )
        assert serialize(mutated) == b"G1 X1 Y1 E1\nG0 X5 Y1\nG1 X5 Y5 E3\n"

    def test_render_command_single_spaced(self):
        record = _command("G1", (("X", "1.5"), ("E", "2")), " wall")
        assert record[0] == "G1 X1.5 E2 ; wall"
        assert [record] == list(scan(record[0]))


class TestSimulate:
    def test_three_extruding_moves(self):
        summary = simulate(doc_from("G1 X1 Y1 E1\nG1 X5 Y1 E2\nG1 X5 Y5 E3\n"))
        assert summary.total_extruded == pytest.approx(3.0)
        assert summary.final_e == pytest.approx(3.0)

    def test_travel_gap_absorbed_by_next_move(self):
        # The G0 does not extrude; the next move's delta covers the gap.
        summary = simulate(doc_from("G1 X1 Y1 E1\nG0 X5 Y1\nG1 X5 Y5 E3\n"))
        assert summary.total_extruded == pytest.approx(3.0)

    def test_empty_document(self):
        summary = simulate(parse_document(b""))
        assert summary.total_lines == 0
        assert summary.total_extruded == 0.0
        assert summary.bounds == {}

    def test_retraction_clamped(self):
        summary = simulate(doc_from("G1 E2\nG1 E1\nG1 E3\n"))
        assert summary.total_extruded == pytest.approx(4.0)
        assert summary.final_e == pytest.approx(3.0)

    def test_g92_rebases_without_extruding(self):
        summary = simulate(doc_from("G1 E5\nG92 E0\nG1 E1\n"))
        assert summary.total_extruded == pytest.approx(6.0)
        assert summary.final_e == pytest.approx(1.0)

    def test_g0_e_updates_register_without_extruding(self):
        summary = simulate(doc_from("G0 E5\nG1 E6\n"))
        assert summary.total_extruded == pytest.approx(1.0)

    def test_bounds_only_explicit_axes(self):
        summary = simulate(doc_from("G1 X1 Y2 E1\nG1 X5 E2\n"))
        assert summary.bounds["X"] == (1.0, 5.0)
        assert summary.bounds["Y"] == (2.0, 2.0)
        assert "Z" not in summary.bounds

    def test_decimal_histogram_counts_all_e_tokens(self):
        summary = simulate(doc_from("G92 E0.00000\nG1 E1.50000\nG1 E2.5\n"))
        assert summary.e_decimal_histogram == {5: 2, 1: 1}

    def test_line_kind_counts_total(self, tiny_doc):
        assert simulate(tiny_doc).total_lines == len(tiny_doc.lines)


def test_long_and_zero_padded_codes_count_apart():
    data = b"G01 X1 E1\nG0001 X2 E2\nG1 X3 E3\nM12345678 E4\nG0001 X4\n"
    summary = simulate(data)
    assert summary.command_counts == {"G01": 1, "G0001": 2, "G1": 1, "M12345678": 1}
    # Only the G1 is a move: it alone extrudes, sets E and widens the bounds.
    assert (summary.total_extruded, summary.final_e) == (3.0, 3.0)
    assert summary.bounds == {"X": (3.0, 3.0)}
    assert summary == plain_simulate(scan(data))


class TestCountDecimals:
    """Decimal places of an E number, as ``simulate``'s histogram counts them."""

    @pytest.mark.parametrize(
        "text,expected",
        [("1.23450", 5), ("12", 0), ("0.1", 1), (".5", 1), ("-3.14", 2), ("7.", 0)],
    )
    def test_examples(self, text, expected):
        assert simulate(f"G1 E{text}\n").e_decimal_histogram == {expected: 1}


# Bounded decimal text like the generator and mutator emit, signed zeros whose
# first occurrence decides the sign of a bound, and runs of up to 25 digits on
# either side of the dot, whose floats round in the last bit.
_digits = st.text("0123456789", min_size=1, max_size=25)
_number = st.one_of(
    st.sampled_from(["0.000", "-0.000", "0", "-0", "+0.0", ".0", "-.0"]),
    st.integers(min_value=-9999, max_value=9999).map(str),
    st.tuples(
        st.integers(min_value=-999, max_value=999),
        st.integers(min_value=0, max_value=999999),
    ).map(lambda t: f"{t[0]}.{t[1]:06d}"[: 4 + len(str(t[0]))]),
    st.tuples(st.sampled_from(["", "-", "+"]), _digits, _digits).map("{0[0]}{0[1]}.{0[2]}".format),
)


@given(
    st.lists(
        st.tuples(st.sampled_from("GM"), st.integers(0, 199)).map(
            lambda t: f"{t[0]}{t[1]}"
        ),
        min_size=0,
        max_size=30,
    )
)
def test_property_round_trip_plain_commands(codes):
    text = "".join(f"{c}\n" for c in codes if c != "M83")
    data = text.encode("ascii")
    assert serialize(parse_document(data)) == data


@given(st.lists(_number, min_size=1, max_size=12))
def test_property_round_trip_param_lines(values):
    letters = "XYZEF"
    params = " ".join(
        f"{letters[i % len(letters)]}{v}" for i, v in enumerate(values[:5])
    )
    data = f"G1 {params}\n".encode("ascii")
    assert serialize(parse_document(data)) == data


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=50
    )
)
def test_property_extrusion_totals(e_values):
    """Simulation invariants on arbitrary absolute-E move sequences."""
    text = "".join(f"G1 E{v:.5f}\n" for v in e_values)
    summary = simulate(parse_document(text.encode("ascii")))
    rounded = [round(v, 5) for v in e_values]
    expected = sum(
        max(0.0, b - a) for a, b in zip([0.0] + rounded[:-1], rounded)
    )
    assert summary.total_extruded == pytest.approx(expected, abs=1e-9)
    assert summary.total_extruded >= 0.0
    # With non-decreasing targets the total equals final_e minus the start.
    if rounded == sorted(rounded):
        assert summary.total_extruded == pytest.approx(summary.final_e, abs=1e-9)


@given(st.data())
def test_property_deleting_g1_preserves_final_e(data):
    """Dropping an extruding move cannot change the final E register."""
    e_values = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    drop = data.draw(st.integers(0, len(e_values) - 2))
    text_all = "".join(f"G1 X1 E{v:.5f}\n" for v in e_values)
    text_cut = "".join(
        f"G1 X1 E{v:.5f}\n" for i, v in enumerate(e_values) if i != drop
    )
    full = simulate(parse_document(text_all.encode("ascii")))
    cut = simulate(parse_document(text_cut.encode("ascii")))
    assert cut.final_e == full.final_e


def plain_simulate(records) -> PrintSummary:
    """Reference fold over scan records: per-move bound updates, float values."""
    e = extruded = 0.0
    counts: dict[str, int] = {}
    bounds: dict[str, tuple[float, float]] = {}
    histogram: dict[int, int] = {}
    layers = lines = 0
    for _, code, params, comment, _ in records:
        lines += 1
        if code is None:
            mark = (comment or "").strip()
            if mark.startswith("LAYER:") and mark[6:].isdigit():
                layers += 1
            continue
        counts[code] = counts.get(code, 0) + 1
        for letter, text in params:
            value = float(text)
            if letter == "E":
                decimals = len(text.partition(".")[2])
                histogram[decimals] = histogram.get(decimals, 0) + 1
                if code in ("G0", "G1", "G92"):
                    if code == "G1":
                        extruded += max(0.0, value - e)
                    e = value
            elif letter in "XYZ" and code in ("G0", "G1"):
                lo, hi = bounds.get(letter, (value, value))
                bounds[letter] = (min(lo, value), max(hi, value))
    return PrintSummary(
        final_e=e,
        total_extruded=extruded,
        bounds=bounds,
        layer_count=layers,
        command_counts=counts,
        total_lines=lines,
        e_decimal_histogram=histogram,
    )


# Whitespace that str.strip() removes around a line, line ends aside.
_edge_space = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", " \x1d\t", "\x1e"])

_param_line = st.tuples(
    st.sampled_from(
        ["G0", "G1", "G1", "G92", "M82", "M104", "M106", "G28", "G10", "G01", "E5", "X12"]
        # Codes of M83's shape, which only the line's digits tell apart.
        + ["M80", "M830", "M8"]
        # Codes of four digits and more, and zero-padded ones.
        + ["G0001", "M1040", "M12345678", "G000000000000000001"]
    ),
    st.lists(st.tuples(st.sampled_from("XYZEFS"), _number), max_size=5, unique_by=lambda t: t[0]),
    _edge_space,
    st.sampled_from([" ", "\t", " \t"]),
    st.sampled_from(["", " ;move", "\t; inner ; text", ";", "; X1 E2.5 LAYER:3", ";M83"]),
    _edge_space,
).map(lambda t: t[2] + t[3].join([t[0], *(f"{k}{v}" for k, v in t[1])]) + t[4] + t[5])

# None marks a layer comment; its number is filled in increasing order.
_any_line = st.one_of(
    _param_line,
    _param_line,
    st.sampled_from(
        ["", " ", "\t \t", "\x0b\x1c", ";TYPE:WALL", " ;LAYER:x", ";LAYER:-1", ";", ";LAYER:2 x"]
        # M83 in a comment, and E codes that carry E decimals.
        + [";M83", " ; M83", "E1 E2.5", "E0 X1 E.50"]
    ),
    st.just(None),
)

_LAYER_MARKS = [
    ";LAYER:{}", "  ;LAYER:{}  ", "\x0c;\x1dLAYER:{}\x1f", "\t; LAYER:{}\x0b", ";LAYER:00{}"
]

# One fault per kind that scan reports, each as a line or a line's text.
_FAULTS = {
    "grammar": ["G1 X", "not gcode", "G1 X1.2.3", "G1\x0bX1", "G1 X1\x0b;c", "g1 X1", "G1 X1e3"],
    "m83": ["M83", " M83 ;relative"],
    "duplicate": ["G1 X1 Y2 X3", "G92 E0 E0", "E5 E1 E2"],
    "layer": [";LAYER:0", ";LAYER:0\n;LAYER:0"],
    "layer-digits": [";LAYER:" + "1" * 4301, " ; LAYER:0" + "9" * 4300],
    "bare-cr": ["G1 X1\rG1 X2", "\r;note", "\r\r"],
    "non-ascii": ["G1 X1 ;\u00b5", "\u00e9"],
}


def _lines(draw) -> list[str]:
    lines = draw(st.lists(_any_line, min_size=10, max_size=60))
    layer = draw(st.integers(0, 5))
    for i, line in enumerate(lines):
        if line is None:
            lines[i] = draw(st.sampled_from(_LAYER_MARKS)).format(layer)
            layer += draw(st.integers(1, 3))
    return lines


def _join(draw, lines: list[str]) -> bytes | str:
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final newline
    return text.encode("utf-8") if draw(st.booleans()) else text


@st.composite
def _documents(draw):
    return _join(draw, _lines(draw))


@st.composite
def _extruding_documents(draw):
    """A valid document with a layer mark and extruding moves after it, so
    that the full range of every strategy has moves to target."""
    lines = _lines(draw)
    marks = parse_document("\n".join(lines)).layer_marks
    if marks:
        first = marks[0][0]
    else:
        first = draw(st.integers(0, len(lines)))
        lines.insert(first, ";LAYER:0")
    for _ in range(draw(st.integers(1, 8))):
        lines.insert(draw(st.integers(first + 1, len(lines))), f"G1 X1 E{draw(_number)}")
    return _join(draw, lines)


def _faulted_lines(draw) -> list[str]:
    """Valid lines with one fault, of a drawn kind, put in at a drawn line."""
    lines = _lines(draw)
    kind = draw(st.sampled_from(sorted(_FAULTS)))
    fault = draw(st.sampled_from(_FAULTS[kind]))
    if kind == "layer":  # after a mark at least as high, wherever it goes
        fault = f";LAYER:9\n{fault}"
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + [fault] + lines[at:]


@st.composite
def _faulted_documents(draw):
    return _join(draw, _faulted_lines(draw))


@st.composite
def _distinct_shape_documents(draw):
    """A valid or faulted document in which no two lines share a shape: each
    is led by a run of tabs of its own length, then a form feed."""
    lines = _faulted_lines(draw) if draw(st.booleans()) else _lines(draw)
    return _join(draw, ["\t" * i + "\x0c" + line for i, line in enumerate(lines)])


def exact(summary: PrintSummary) -> PrintSummary:
    """``summary`` with each float as its repr, so that -0.0 and 0.0 differ."""
    return dataclasses.replace(
        summary,
        final_e=repr(summary.final_e),
        total_extruded=repr(summary.total_extruded),
        bounds={axis: repr(bound) for axis, bound in summary.bounds.items()},
    )


def _other_type(data: bytes | str) -> bytes | str:
    return data.decode("ascii") if isinstance(data, bytes) else data.encode("ascii")


@given(_documents())
def test_property_scan_fold_equals_parsed_fold(data):
    doc = parse_document(data)
    assert list(doc) == list(scan(data))
    assert extract(scan(data)) == extract(doc)
    assert simulate(scan(data)) == simulate(doc) == plain_simulate(doc)
    reference = exact(plain_simulate(scan(data)))
    assert exact(simulate(data)) == exact(simulate(_other_type(data))) == reference
    assert exact(simulate(doc)) == reference
    assert simulate(doc).layer_count == len(doc.layer_marks)
    normalized = data if isinstance(data, bytes) else data.encode("ascii")
    assert serialize(doc) == normalized.replace(b"\r\n", b"\n")


@given(_extruding_documents())
def test_property_strategy_registers_equal_the_fold(data):
    """``apply_strategy``'s E registers move as ``simulate`` folds them: G92
    resets, G0 E moves and signed zeros included."""
    doc = parse_document(data)
    final_e = repr(simulate(doc).final_e)
    for sid in STRATEGY_IDS:
        try:
            mutated, log = apply_strategy(doc, Strategy(sid, RangeMode.FULL100))
        except EmptyRangeError:  # fewer than four extruding moves to pick from
            continue
        assert repr(log.original_final_e) == final_e
        assert repr(log.mutated_final_e) == repr(simulate(serialize(mutated)).final_e)


def _scan_message(data: bytes | str) -> str:
    with pytest.raises(MalformedFileError) as scanned:
        list(scan(data, source_path="p.gcode"))
    return str(scanned.value)


@given(_faulted_documents())
def test_property_fault_raises_scan_message(data):
    with pytest.raises(MalformedFileError) as folded:
        simulate(data, source_path="p.gcode")
    assert str(folded.value) == _scan_message(data)


def _outcome(fold, data: bytes | str) -> PrintSummary | str:
    """``fold``'s exact summary of ``data``, or the message of the fault it raises."""
    try:
        return exact(fold(data, source_path="p.gcode"))
    except MalformedFileError as exc:
        return str(exc)


def _plain_fold(data: bytes | str, source_path: str) -> PrintSummary:
    return plain_simulate(scan(data, source_path=source_path))


@pytest.mark.parametrize("size", [1, 7, 40])
@given(data=st.one_of(_documents(), _faulted_documents()))
def test_property_slices_of_any_size_fold_alike(size, data):
    expected = _outcome(_plain_fold, data)
    with mock.patch.object(gcode, "_SLICE_BYTES", size):
        assert _outcome(simulate, data) == expected


@given(_distinct_shape_documents())
def test_property_distinct_shapes_fold_alike(data):
    assert _outcome(simulate, data) == _outcome(_plain_fold, data)


def _peak_fold_memory(data: bytes) -> int:
    tracemalloc.start()
    try:
        simulate(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fold_memory_does_not_grow_with_the_file():
    one = serialize(build_specimen(preset_spec("D2"), angle_deg=10.0, seed=3))
    # Plain comments in place of layer marks, so that the copies stay valid.
    one = one.replace(b";LAYER:", b";layer:")
    eight = one * 8
    assert simulate(eight).total_lines == 8 * simulate(one).total_lines
    assert _peak_fold_memory(eight) < 2 * _peak_fold_memory(one)


def test_faulty_file_memory_does_not_hold_its_records():
    """A fault found by the slice checks is re-raised by draining ``scan``,
    which keeps none of the file's records."""
    one = serialize(build_specimen(preset_spec("D2"), angle_deg=10.0, seed=3))
    data = one.replace(b";LAYER:", b";layer:") * max(1, (1 << 20) // len(one)) + b"M83\n"
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFileError, match=r"relative extrusion \(M83\)"):
            simulate(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(data)


def _distinct_shape_moves(n: int) -> bytes:
    """``n`` moves, no two of one shape: the length of each parameter's digit
    run is one decimal digit of the move's index, plus one."""
    return "".join(
        "G1 " + " ".join(f"{letter}{'1' * (int(d) + 1)}" for letter, d in zip("XYZEF", f"{i:05d}"))
        + "\n"
        for i in range(n)
    ).encode("ascii")


def test_fold_memory_does_not_grow_with_distinct_shapes():
    """Each slice keeps its own table of shapes, so 8x as many distinct shapes
    fold in about the same memory."""
    one, eight = _distinct_shape_moves(5000), _distinct_shape_moves(40000)
    assert exact(simulate(one)) == exact(plain_simulate(scan(one)))
    assert simulate(eight).total_lines == 8 * simulate(one).total_lines
    assert _peak_fold_memory(eight) < 2 * _peak_fold_memory(one)


def test_scan_records():
    data = b" G1 X1.50 E2 ;c\n\n;LAYER:3\r\n;note"
    assert list(scan(data)) == [
        (" G1 X1.50 E2 ;c", "G1", (("X", "1.50"), ("E", "2")), "c", None),
        ("", None, (), None, None),
        (";LAYER:3", None, (), "LAYER:3", 3),
        (";note", None, (), "note", None),
    ]
    assert parse_document(data).final_newline is False


@pytest.mark.parametrize(
    "data,message",
    [
        (
            b"G1 X1 ;\xc2\xb5\n",
            "p.gcode: not ASCII: 'ascii' codec can't decode byte 0xc2 in position 7: "
            "ordinal not in range(128)",
        ),
        ("G1 X1 ;\u00b5\n", "p.gcode: not ASCII"),
        ("G1 X1 ;\ud800\n", "p.gcode: not ASCII"),
        (b"G1 X1\rG1 X2\n", "p.gcode: bare carriage return"),
        (b"G1 X1\nnot gcode\n", "p.gcode: unrecognized line syntax (line 2): 'not gcode'"),
        (
            b"M82\nM83\n",
            "p.gcode: relative extrusion (M83) is outside the supported subset (line 2): 'M83'",
        ),
        (b"G1 X1 X2\n", "p.gcode: duplicate parameter letter (line 1): 'G1 X1 X2'"),
        (b";LAYER:1\n;LAYER:1\n", "p.gcode: layer markers not increasing (1 then 1 at line 2)"),
        (
            b";LAYER:2\nG1 X1 Y1 X1\n;LAYER:1\nM83\n",
            "p.gcode: duplicate parameter letter (line 2): 'G1 X1 Y1 X1'",
        ),
        (
            b"G1 X1\r\n;LAYER:3\r\n;LAYER:2",
            "p.gcode: layer markers not increasing (3 then 2 at line 3)",
        ),
        (
            b";LAYER:1\n;LAYER:" + b"1" * 4301 + b"\n",
            "p.gcode: layer number too long (line 2)",
        ),
    ],
    ids=[
        "bytes-not-ascii", "str-not-ascii", "str-lone-surrogate", "bare-cr", "bad-syntax", "m83",
        "duplicate-letter", "layer-not-increasing", "first-fault-wins", "crlf-layer",
        "layer-number-too-long",
    ],
)
def test_scan_and_parse_raise_the_same_message(data, message):
    with pytest.raises(MalformedFileError) as parsed:
        parse_document(data, source_path="p.gcode")
    with pytest.raises(MalformedFileError) as folded:
        simulate(data, source_path="p.gcode")
    assert str(parsed.value) == _scan_message(data) == str(folded.value) == message
