"""Parser, serializer, and simulator behavior."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcodeguard.gcode import (
    GcodeDocument,
    LineKind,
    PrintSummary,
    MalformedFileError,
    MalformedLineError,
    count_decimals,
    parse_document,
    scan,
    serialize,
    simulate,
)
from gcodeguard.features import extract
from gcodeguard.mutate import _command

from conftest import doc_from


def scan_one(text: str) -> tuple:
    """The scan record of a one-line file."""
    (record,) = scan(text)
    return record


class TestParseLine:
    """One line through ``scan``: the record's kind, code, params and comment."""

    def test_command_with_params(self):
        _, kind, code, params, _, _ = scan_one("G1 X5 Y1 E2")
        assert kind is LineKind.COMMAND
        assert code == "G1"
        assert params == (("X", "5"), ("Y", "1"), ("E", "2"))

    def test_empty_is_blank(self):
        assert scan_one("\n") == ("", LineKind.BLANK, None, (), None, None)

    def test_layer_marker_comment(self):
        _, kind, _, _, _, layer = scan_one(";LAYER:12")
        assert kind is LineKind.COMMENT
        assert layer == 12

    def test_plain_comment_has_no_layer(self):
        assert scan_one(";TYPE:SKIN")[5] is None

    def test_param_text_preserved(self):
        params = scan_one("G1 E12.30000")[3]
        assert params == (("E", "12.30000"),)
        assert count_decimals(params[0][1]) == 5

    def test_trailing_comment(self):
        _, _, code, _, comment, _ = scan_one("G1 X1 ;move")
        assert code == "G1"
        assert comment == "move"

    def test_negative_and_bare_dot_values(self):
        params = scan_one("G1 X-1.5 Y.25")[3]
        assert [(letter, float(text)) for letter, text in params] == [("X", -1.5), ("Y", 0.25)]

    @pytest.mark.parametrize("bad", ["G1 X", "G1 5X", "G", "XG1 1", "G1 X1 X2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedFileError) as info:
            scan_one(bad)
        assert isinstance(info.value.__cause__, MalformedLineError)

    def test_relative_extrusion_rejected(self):
        with pytest.raises(MalformedFileError, match="M83"):
            scan_one("M83")

    def test_newline_rejected(self):
        # A carriage return that does not end a CRLF pair is not a line end.
        with pytest.raises(MalformedFileError, match="bare carriage return"):
            scan_one("G1 X1\rG1 X2")


class TestMalformedLineError:
    @pytest.mark.parametrize("line_index", [4, None])
    def test_survives_pickling(self, line_index):
        error = MalformedLineError("unrecognized line syntax", "G1 X", line_index)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is MalformedLineError
        assert str(copy) == str(error)
        assert (copy.text, copy.line_index) == ("G1 X", line_index)


class TestParseDocument:
    def test_three_command_snippet(self):
        doc = doc_from("G1 X1 Y1 E1\nG1 X5 Y1 E2\nG1 X5 Y5 E3\n")
        assert len(doc.lines) == 3
        assert all(record[1] is LineKind.COMMAND for record in doc.lines)

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
        swapped = _command("G0", tuple(p for p in doc.lines[1][3] if p[0] != "E"))
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
        summary = simulate(tiny_doc)
        assert (
            sum(summary.command_counts.values())
            + summary.comment_lines
            + summary.blank_lines
            == summary.total_lines
            == len(tiny_doc.lines)
        )


class TestCountDecimals:
    @pytest.mark.parametrize(
        "text,expected",
        [("1.23450", 5), ("12", 0), ("0.1", 1), (".5", 1), ("-3.14", 2), ("7.", 0)],
    )
    def test_examples(self, text, expected):
        assert count_decimals(text) == expected


# Bounded decimal text like the generator and mutator emit.
_number = st.one_of(
    st.integers(min_value=-9999, max_value=9999).map(str),
    st.tuples(
        st.integers(min_value=-999, max_value=999),
        st.integers(min_value=0, max_value=999999),
    ).map(lambda t: f"{t[0]}.{t[1]:06d}"[: 4 + len(str(t[0]))]),
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
    comments = blanks = layers = lines = 0
    for _, kind, code, params, comment, _ in records:
        lines += 1
        if kind is LineKind.COMMENT:
            comments += 1
            if comment.strip().startswith("LAYER:") and comment.strip()[6:].isdigit():
                layers += 1
            continue
        if kind is LineKind.BLANK:
            blanks += 1
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
        comment_lines=comments,
        blank_lines=blanks,
        total_lines=lines,
        e_decimal_histogram=histogram,
    )


_param_line = st.tuples(
    st.sampled_from(["G0", "G1", "G1", "G92", "M82", "M104", "M106", "G28"]),
    st.lists(st.tuples(st.sampled_from("XYZEFS"), _number), max_size=5, unique_by=lambda t: t[0]),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", " ;move", "\t; inner ; text", ";"]),
).map(lambda t: t[2] + " ".join([t[0], *(f"{k}{v}" for k, v in t[1])]) + t[3])

# None marks a layer comment; its number is filled in increasing order.
_any_line = st.one_of(
    _param_line,
    _param_line,
    st.sampled_from(["", " ", "\t \t", ";TYPE:WALL", " ;LAYER:x", ";LAYER:-1", ";"]),
    st.just(None),
)


@st.composite
def _documents(draw):
    lines = draw(st.lists(_any_line, min_size=10, max_size=60))
    layer = draw(st.integers(0, 5))
    for i, line in enumerate(lines):
        if line is None:
            lines[i] = draw(st.sampled_from([";LAYER:{}", "  ;LAYER:{}  "])).format(layer)
            layer += draw(st.integers(1, 3))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final newline
    return text.encode("ascii") if draw(st.booleans()) else text


@given(_documents())
def test_property_scan_fold_equals_parsed_fold(data):
    doc = parse_document(data)
    assert list(doc) == list(scan(data))
    assert extract(scan(data)) == extract(doc)
    assert simulate(scan(data)) == simulate(doc) == plain_simulate(doc)
    assert simulate(doc).layer_count == len(doc.layer_marks)
    normalized = data if isinstance(data, bytes) else data.encode("ascii")
    assert serialize(doc) == normalized.replace(b"\r\n", b"\n")


def test_scan_records():
    data = b" G1 X1.50 E2 ;c\n\n;LAYER:3\r\n;note"
    assert list(scan(data)) == [
        (" G1 X1.50 E2 ;c", LineKind.COMMAND, "G1", (("X", "1.50"), ("E", "2")), "c", None),
        ("", LineKind.BLANK, None, (), None, None),
        (";LAYER:3", LineKind.COMMENT, None, (), "LAYER:3", 3),
        (";note", LineKind.COMMENT, None, (), "note", None),
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
    ],
    ids=[
        "bytes-not-ascii", "str-not-ascii", "bare-cr", "bad-syntax", "m83",
        "duplicate-letter", "layer-not-increasing", "first-fault-wins", "crlf-layer",
    ],
)
def test_scan_and_parse_raise_the_same_message(data, message):
    with pytest.raises(MalformedFileError) as parsed:
        parse_document(data, source_path="p.gcode")
    with pytest.raises(MalformedFileError) as scanned:
        list(scan(data, source_path="p.gcode"))
    assert str(parsed.value) == str(scanned.value) == message
