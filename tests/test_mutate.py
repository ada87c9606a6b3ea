"""Sabotage strategies: range selection, rewrites, conservation, planning."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gcodeguard.gcode import count_decimals, parse_document, scan, serialize, simulate
from gcodeguard.mutate import (
    STRATEGY_IDS,
    CompromisePlan,
    EmptyRangeError,
    RangeMode,
    Strategy,
    apply_strategy,
    format_minimal,
    plan_compromise,
    select_range,
)
from gcodeguard.synthgen import DatasetManifest, ManifestEntry

from conftest import doc_from


def make_layered_doc(layers: int = 4, moves: int = 6, de: float = 0.1):
    """Predictable document: a preamble plus `moves` extruding lines per layer."""
    out = ["M82", "G92 E0.00000"]
    e = 0.0
    for layer in range(layers):
        out.append(f";LAYER:{layer}")
        out.append(f"G0 X0 Y0 Z{(layer + 1) * 0.2:.3f}")
        for m in range(moves):
            e += de
            out.append(f"G1 X{m}.0 Y{layer}.0 E{e:.5f}")
    return parse_document("\n".join(out) + "\n")


class TestSelectRange:
    def test_middle50_of_20_layers(self):
        doc = make_layered_doc(layers=20, moves=2)
        span = select_range(doc, RangeMode.MIDDLE50)
        # ceil(20/4)=5 and 3*20//4=15: layers 5..14 stay inside the span.
        assert span.start == doc.layer_marks[5][0]
        assert span.stop == doc.layer_marks[15][0]
        layer_of = {i: layer for i, layer in doc.layer_marks}
        inside = [layer_of[i] for i in span if i in layer_of]
        assert inside == list(range(5, 15))

    def test_full100_spans_to_end(self):
        doc = make_layered_doc(layers=4)
        span = select_range(doc, RangeMode.FULL100)
        assert span.start == doc.layer_marks[0][0]
        assert span.stop == len(doc.lines)

    def test_single_layer_middle50_empty(self):
        doc = make_layered_doc(layers=1)
        with pytest.raises(EmptyRangeError):
            select_range(doc, RangeMode.MIDDLE50)

    def test_no_layer_markers(self):
        doc = doc_from("G1 X1 E1\n")
        with pytest.raises(EmptyRangeError):
            select_range(doc, RangeMode.FULL100)


class TestFormatMinimal:
    @pytest.mark.parametrize(
        "value,expected",
        [(12.3, "12.3"), (5.0, "5"), (0.0001, "0.0001"), (2.0, "2"), (0.0, "0")],
    )
    def test_examples(self, value, expected):
        assert format_minimal(value) == expected

    def test_spec_trimming_case(self):
        # A previous-E rewrite of 12.3 must come out shorter than 5 decimals.
        assert format_minimal(float("12.30000")) == "12.3"

    @given(st.floats(min_value=0.0, max_value=10000.0, allow_nan=False))
    def test_property_value_preserving(self, value):
        assert float(format_minimal(value)) == value

    @given(st.floats(min_value=0.0, max_value=10000.0, allow_nan=False))
    def test_property_no_trailing_zero(self, value):
        text = format_minimal(value)
        if "." in text:
            assert not text.endswith("0") and not text.endswith(".")


class TestStrategyDefaults:
    def test_range_modes(self):
        assert Strategy.default("ID3").range_mode is RangeMode.FULL100
        for sid in ("ID1", "ID2", "ID4", "ID5", "ID6"):
            assert Strategy.default(sid).range_mode is RangeMode.MIDDLE50

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            Strategy("ID7", RangeMode.MIDDLE50)


def line_texts(doc) -> list[str]:
    return [record[0] for record in doc.lines]


def param(record, letter: str) -> str | None:
    """The number text of ``letter`` on a scan record, or None."""
    return dict(record[3]).get(letter)


class TestApplyStrategy:
    def test_id1_converts_every_fourth(self):
        doc = make_layered_doc(layers=4, moves=6)
        mutated, log = apply_strategy(doc, Strategy.default("ID1"))
        # Layers 1..2 hold 12 extruding moves; ordinals 4, 8, 12 convert.
        assert log.lines_rewritten == 3
        assert len(log.target_line_indices) == 3
        for i in log.target_line_indices:
            original = doc.lines[i]
            converted = mutated.lines[i]
            assert original[2] == "G1" and param(original, "E") is not None
            assert converted[2] == "G0"
            assert param(converted, "E") is None
            assert param(converted, "F") is None
            assert param(converted, "X") == param(original, "X")

    def test_id1_locality(self):
        doc = make_layered_doc()
        mutated, log = apply_strategy(doc, Strategy.default("ID1"))
        before, after = line_texts(doc), line_texts(mutated)
        assert len(before) == len(after)
        changed = {i for i, (a, b) in enumerate(zip(before, after)) if a != b}
        assert changed == set(log.target_line_indices)

    def test_id2_inserts_blob_after_conversion(self):
        doc = make_layered_doc()
        mutated, log = apply_strategy(doc, Strategy.default("ID2"))
        assert log.lines_inserted == log.lines_rewritten == 3
        assert len(mutated.lines) == len(doc.lines) + 3
        texts = line_texts(mutated)
        for i in log.target_line_indices:
            original = doc.lines[i]
            blob_text = f"G1 E{format_minimal(float(param(original, 'E')))}"
            converted_at = texts.index(original[0].replace("G1", "G0").rsplit(" E", 1)[0])
            assert texts[converted_at + 1] == blob_text

    def test_id3_rewrites_all_in_range(self):
        doc = make_layered_doc(layers=4, moves=6, de=0.1)
        mutated, log = apply_strategy(doc, Strategy.default("ID3"))
        # full100 range: every extruding move rewritten, deltas halved.
        assert log.lines_rewritten == 24
        for record in mutated.lines:
            e = param(record, "E")
            if record[2] == "G1" and e is not None:
                assert count_decimals(e) == 5

    def test_id3_halves_total_extrusion(self):
        doc = make_layered_doc(layers=6, moves=5, de=0.07)
        mutated, _ = apply_strategy(doc, Strategy.default("ID3"))
        original = simulate(doc)
        halved = simulate(mutated)
        assert halved.final_e == pytest.approx(original.final_e / 2, rel=1e-6)
        assert halved.total_extruded == pytest.approx(
            original.total_extruded / 2, rel=1e-6
        )

    def test_id4_sets_previous_extrusion(self):
        doc = make_layered_doc()
        mutated, log = apply_strategy(doc, Strategy.default("ID4"))
        for i in log.target_line_indices:
            prev_e = float(param(doc.lines[i - 1], "E"))
            assert param(mutated.lines[i], "E") == format_minimal(prev_e)

    def test_id4_spec_formatting_case(self):
        text = (
            "M82\nG92 E0.00000\n;LAYER:0\nG1 X0 Y0 E12.30000\n;LAYER:1\n"
            "G1 X1 Y0 E12.31000\nG1 X2 Y0 E12.32000\nG1 X3 Y0 E12.33000\n"
            "G1 X4 Y0 E12.34560\n;LAYER:2\nG1 X5 Y0 E12.40000\n;LAYER:3\n"
            "G1 X6 Y0 E12.50000\n"
        )
        doc = parse_document(text)
        mutated, log = apply_strategy(doc, Strategy.default("ID4"))
        # Middle layers 1..2 hold five moves; the 4th ("E12.34560") is the
        # target and its E becomes the previous move's value, trimmed.
        (target,) = log.target_line_indices
        assert param(doc.lines[target], "E") == "12.34560"
        assert param(mutated.lines[target], "E") == "12.33"

    def test_id5_adds_tenth_of_milli(self):
        doc = make_layered_doc()
        mutated, log = apply_strategy(doc, Strategy.default("ID5"))
        for i in log.target_line_indices:
            prev_e = float(param(doc.lines[i - 1], "E"))
            assert float(param(mutated.lines[i], "E")) == pytest.approx(
                prev_e + 0.0001, abs=1e-12
            )

    def test_id6_deletes_every_fourth(self):
        doc = make_layered_doc(layers=4, moves=6)
        mutated, log = apply_strategy(doc, Strategy.default("ID6"))
        assert log.lines_deleted == 3  # floor(12 / 4)
        assert len(mutated.lines) == len(doc.lines) - 3
        deleted = {doc.lines[i][0] for i in log.target_line_indices}
        remaining = set(line_texts(mutated))
        assert deleted.isdisjoint(remaining)

    @pytest.mark.parametrize("sid", ["ID1", "ID2", "ID4", "ID5", "ID6"])
    def test_final_e_conserved(self, sid, tiny_doc):
        mutated, log = apply_strategy(tiny_doc, Strategy.default(sid))
        original = simulate(tiny_doc)
        after = simulate(mutated)
        assert abs(after.final_e - original.final_e) <= 1e-6
        assert log.original_final_e == pytest.approx(original.final_e)
        assert log.mutated_final_e == pytest.approx(after.final_e)

    def test_id2_conserves_total_extruded(self, tiny_doc):
        mutated, _ = apply_strategy(tiny_doc, Strategy.default("ID2"))
        assert simulate(mutated).total_extruded == pytest.approx(
            simulate(tiny_doc).total_extruded, abs=1e-6
        )

    @pytest.mark.parametrize("sid", ["ID1", "ID4", "ID5", "ID6"])
    def test_total_extruded_absorbed_by_next_move(self, sid, tiny_doc):
        # Absolute E targets make the move after a tampered one absorb the
        # whole gap, so total filament use is unchanged even though material
        # lands in the wrong place.
        mutated, _ = apply_strategy(tiny_doc, Strategy.default(sid))
        assert simulate(mutated).total_extruded == pytest.approx(
            simulate(tiny_doc).total_extruded, abs=1e-6
        )

    def test_mutations_round_trip(self, tiny_doc):
        # Rebuilt records feed simulate directly, so they must equal what a
        # scan of the written file yields.
        for sid in STRATEGY_IDS:
            for mode in RangeMode:
                mutated, _ = apply_strategy(tiny_doc, Strategy(sid, mode))
                data = serialize(mutated)
                assert list(scan(data)) == list(mutated.lines)
                assert serialize(parse_document(data)) == data

    def test_empty_range_raises(self):
        doc = doc_from("M82\n;LAYER:0\nG0 X1 Y1\n")
        with pytest.raises(EmptyRangeError):
            apply_strategy(doc, Strategy.default("ID3"))

    def test_range_override(self):
        doc = make_layered_doc(layers=4, moves=6)
        mutated, log = apply_strategy(doc, Strategy("ID1", RangeMode.FULL100))
        assert log.lines_rewritten == 6  # floor(24 / 4)
        assert log.range_mode is RangeMode.FULL100


# Every register move inside both ranges: a retraction (G1 E below the
# register) and its unretract, a G92 E rebase, and a travel that sets E
# (G0 ... E). Four layers, so middle50 is layers 1..2 (lines 7..20).
REGISTER_MOVES = """\
M82
G92 E0.00000
G1 E2.00000 F1800
;LAYER:0
G0 X0 Y0 Z0.200
G1 X1 Y0 E2.10000
G1 X2 Y0 E2.20000
;LAYER:1
G1 X3 Y0 E2.30000
G1 E1.50000 F2400
G0 X0 Y1 Z0.400
G1 E2.30000 F2400
G92 E0.00000
G1 X1 Y1 E0.15000
;LAYER:2
G1 F1200
G1 X2 Y1 E0.30000
G1 X3 Y1 E0.45000
G1 X4 Y1 E0.60000
G0 X5 Y1 E0.50000
G1 X6 Y1 E0.70000 ;wall
;LAYER:3
G0 X0 Y2 Z0.600
G1 X1 Y2 E0.85000
G1 X2 Y2 E1.00000
"""

REGISTER_MOVE_SPANS = {RangeMode.MIDDLE50: [7, 21], RangeMode.FULL100: [3, 25]}

# (sid, mode) -> (target index -> replacement lines, (rewritten, deleted,
# inserted), mutated final E). Literal values, so any change in how the
# strategies track the E register across these lines shows up here.
REGISTER_MOVE_EDITS = {
    ("ID1", RangeMode.MIDDLE50): (
        {13: ["G0 X1 Y1"], 20: ["G0 X6 Y1 ;wall"]},
        (2, 0, 0),
        1.0,
    ),
    ("ID1", RangeMode.FULL100): (
        {9: ["G0"], 17: ["G0 X3 Y1"], 24: ["G0 X2 Y2"]},
        (3, 0, 0),
        0.85,
    ),
    ("ID2", RangeMode.MIDDLE50): (
        {13: ["G0 X1 Y1", "G1 E0.15"], 20: ["G0 X6 Y1 ;wall", "G1 E0.7"]},
        (2, 0, 2),
        1.0,
    ),
    ("ID2", RangeMode.FULL100): (
        {9: ["G0", "G1 E1.5"], 17: ["G0 X3 Y1", "G1 E0.45"], 24: ["G0 X2 Y2", "G1 E1"]},
        (3, 0, 3),
        1.0,
    ),
    ("ID3", RangeMode.MIDDLE50): (
        {
            8: ["G1 X3 Y0 E2.25000"],
            9: ["G1 E1.85000 F2400"],
            11: ["G1 E2.25000 F2400"],
            13: ["G1 X1 Y1 E0.07500"],
            16: ["G1 X2 Y1 E0.15000"],
            17: ["G1 X3 Y1 E0.22500"],
            18: ["G1 X4 Y1 E0.30000"],
            20: ["G1 X6 Y1 E0.60000 ;wall"],
        },
        (8, 0, 0),
        1.0,
    ),
    ("ID3", RangeMode.FULL100): (
        {
            5: ["G1 X1 Y0 E2.05000"],
            6: ["G1 X2 Y0 E2.10000"],
            8: ["G1 X3 Y0 E2.15000"],
            9: ["G1 E1.75000 F2400"],
            11: ["G1 E2.15000 F2400"],
            13: ["G1 X1 Y1 E0.07500"],
            16: ["G1 X2 Y1 E0.15000"],
            17: ["G1 X3 Y1 E0.22500"],
            18: ["G1 X4 Y1 E0.30000"],
            20: ["G1 X6 Y1 E0.60000 ;wall"],
            23: ["G1 X1 Y2 E0.67500"],
            24: ["G1 X2 Y2 E0.75000"],
        },
        (12, 0, 0),
        0.75,
    ),
    ("ID4", RangeMode.MIDDLE50): (
        {13: ["G1 X1 Y1 E2.3"], 20: ["G1 X6 Y1 E0.6 ;wall"]},
        (2, 0, 0),
        1.0,
    ),
    ("ID4", RangeMode.FULL100): (
        {9: ["G1 E2.3 F2400"], 17: ["G1 X3 Y1 E0.3"], 24: ["G1 X2 Y2 E0.85"]},
        (3, 0, 0),
        0.85,
    ),
    ("ID5", RangeMode.MIDDLE50): (
        {13: ["G1 X1 Y1 E2.3001"], 20: ["G1 X6 Y1 E0.6001 ;wall"]},
        (2, 0, 0),
        1.0,
    ),
    ("ID5", RangeMode.FULL100): (
        {9: ["G1 E2.3001 F2400"], 17: ["G1 X3 Y1 E0.3001"], 24: ["G1 X2 Y2 E0.8501"]},
        (3, 0, 0),
        0.8501,
    ),
    ("ID6", RangeMode.MIDDLE50): ({13: [], 20: []}, (0, 2, 0), 1.0),
    ("ID6", RangeMode.FULL100): ({9: [], 17: [], 24: []}, (0, 3, 0), 0.85),
}


@pytest.mark.parametrize("sid,mode", list(REGISTER_MOVE_EDITS))
def test_register_moves_in_range(sid, mode):
    doc = parse_document(REGISTER_MOVES)
    edits, (rewritten, deleted, inserted), mutated_final_e = REGISTER_MOVE_EDITS[sid, mode]
    mutated, log = apply_strategy(doc, Strategy(sid, mode))
    expected = []
    for i, record in enumerate(doc.lines):
        expected.extend(edits.get(i, [record[0]]))
    assert line_texts(mutated) == expected
    assert list(scan(serialize(mutated))) == list(mutated.lines)
    assert log.to_json_dict() == {
        "strategy": sid,
        "range_mode": mode.value,
        "span": REGISTER_MOVE_SPANS[mode],
        "targets": list(edits),
        "lines_rewritten": rewritten,
        "lines_deleted": deleted,
        "lines_inserted": inserted,
        "original_final_e": 1.0,
        "mutated_final_e": mutated_final_e,
    }


@given(
    layers=st.integers(min_value=3, max_value=8),
    moves=st.integers(min_value=1, max_value=9),
    de=st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
    sid=st.sampled_from(STRATEGY_IDS),
)
def test_property_conservation(layers, moves, de, sid):
    doc = make_layered_doc(layers=layers, moves=moves, de=de)
    try:
        mutated, _ = apply_strategy(doc, Strategy.default(sid))
    except EmptyRangeError:
        assume(False)
    original = simulate(doc).final_e
    after = simulate(mutated).final_e
    if sid == "ID3":
        # Rewritten tokens carry five decimals, so the final value may sit
        # half an ulp of that grid away from the exact half.
        assert abs(after - original / 2) <= max(1e-6 * original, 5e-6 + 1e-9)
    else:
        assert abs(after - original) <= 1e-6


@given(
    layers=st.integers(min_value=3, max_value=8),
    moves=st.integers(min_value=4, max_value=9),
)
def test_property_line_count_deltas(layers, moves):
    doc = make_layered_doc(layers=layers, moves=moves)
    span = select_range(doc, RangeMode.MIDDLE50)
    in_range = sum(
        1
        for i in span
        if doc.lines[i][2] == "G1" and param(doc.lines[i], "E") is not None
    )
    expected = in_range // 4
    assume(expected > 0)
    kept, _ = apply_strategy(doc, Strategy.default("ID1"))
    grown, _ = apply_strategy(doc, Strategy.default("ID2"))
    shrunk, _ = apply_strategy(doc, Strategy.default("ID6"))
    assert len(kept.lines) == len(doc.lines)
    assert len(grown.lines) == len(doc.lines) + expected
    assert len(shrunk.lines) == len(doc.lines) - expected


def tiny_manifest(count: int = 10) -> DatasetManifest:
    entries = tuple(
        ManifestEntry(path=f"part_{i:03d}.gcode", angle_deg=float(i), seed=i)
        for i in range(count)
    )
    return DatasetManifest(dataset_id="T", generator_version="0", entries=entries)


class TestPlanCompromise:
    def test_counts_and_distinctness(self):
        plan = plan_compromise(tiny_manifest(10), {"ID1": 2, "ID6": 3}, seed=9)
        assert len(plan.victims) == 5
        assert len({v.path for v in plan.victims}) == 5
        by_sid = {}
        for v in plan.victims:
            by_sid[v.strategy_id] = by_sid.get(v.strategy_id, 0) + 1
        assert by_sid == {"ID1": 2, "ID6": 3}

    def test_deterministic(self):
        a = plan_compromise(tiny_manifest(), {"ID2": 4}, seed=5)
        b = plan_compromise(tiny_manifest(), {"ID2": 4}, seed=5)
        assert a == b

    def test_seed_changes_selection(self):
        a = plan_compromise(tiny_manifest(), {"ID2": 4}, seed=5)
        b = plan_compromise(tiny_manifest(), {"ID2": 4}, seed=6)
        assert {v.path for v in a.victims} != {v.path for v in b.victims}

    def test_zero_counts_empty_plan(self):
        plan = plan_compromise(tiny_manifest(), {}, seed=1)
        assert plan.victims == ()

    def test_counts_exceeding_dataset(self):
        with pytest.raises(ValueError):
            plan_compromise(tiny_manifest(4), {"ID1": 5}, seed=1)

    def test_unknown_strategy_id(self):
        with pytest.raises(ValueError):
            plan_compromise(tiny_manifest(), {"ID9": 1}, seed=1)

    def test_json_round_trip(self):
        plan = plan_compromise(tiny_manifest(), {"ID1": 2, "ID3": 1}, seed=2)
        again = CompromisePlan.from_json_dict(plan.to_json_dict())
        assert {(v.path, v.strategy_id) for v in again.victims} == {
            (v.path, v.strategy_id) for v in plan.victims
        }
        assert again.dataset_id == plan.dataset_id
