"""Confusion matrices, per-strategy recall, and report files."""

from __future__ import annotations

import csv
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcodeguard.detectors import FlagSet
from gcodeguard.evaluate import (
    REPORT_VERSION,
    ConfusionMatrix,
    confusion,
    emit_report,
    per_strategy_recall,
)
from gcodeguard.mutate import STRATEGY_IDS, CompromisePlan, VictimAssignment


def make_paths(n):
    return tuple(f"part_{i:04d}.gcode" for i in range(n))


def make_truth(victims, dataset_id="DS", seed=1):
    return CompromisePlan(
        dataset_id=dataset_id,
        seed=seed,
        victims=tuple(VictimAssignment(path=p, strategy=s) for p, s in victims),
    )


def make_flags(flagged, detector="combined_stat"):
    return FlagSet(
        detector=detector,
        parameters={"threshold": 3.5},
        flagged=tuple(sorted(flagged)),
        scores={p: 1.0 for p in flagged},
    )


class TestConfusionMatrix:
    def test_derived_rates(self):
        cm = ConfusionMatrix(tp=2, fp=1, tn=176, fn=1)
        assert cm.recall == pytest.approx(2 / 3)
        assert cm.precision == pytest.approx(2 / 3)
        assert cm.accuracy == pytest.approx(178 / 180)
        assert cm.as_tuple() == (2, 1, 176, 1)

    def test_zero_guards(self):
        cm = ConfusionMatrix(tp=0, fp=0, tn=10, fn=0)
        assert cm.recall == 0.0
        assert cm.precision == 0.0
        assert ConfusionMatrix(0, 0, 0, 0).accuracy == 0.0


class TestConfusion:
    def test_perfect_detection(self):
        paths = make_paths(180)
        truth = make_truth([(paths[7], "ID1"), (paths[99], "ID1")])
        flags = make_flags([paths[7], paths[99]])
        assert confusion(flags, truth, paths).as_tuple() == (2, 0, 178, 0)

    def test_all_missed(self):
        paths = make_paths(4320)
        victims = [(p, STRATEGY_IDS[i % 6]) for i, p in enumerate(paths[:60])]
        truth = make_truth(victims)
        assert confusion(make_flags([]), truth, paths).as_tuple() == (0, 0, 4260, 60)

    def test_everything_flagged(self):
        paths = make_paths(4320)
        victims = [(p, STRATEGY_IDS[i % 6]) for i, p in enumerate(paths[:60])]
        truth = make_truth(victims)
        assert confusion(make_flags(list(paths)), truth, paths).as_tuple() == (
            60, 4260, 0, 0,
        )

    def test_flags_outside_universe_ignored(self):
        paths = make_paths(10)
        truth = make_truth([(paths[0], "ID6")])
        flags = make_flags([paths[0], "elsewhere.gcode"])
        assert confusion(flags, truth, paths).as_tuple() == (1, 0, 9, 0)

    def test_truth_outside_universe_rejected(self):
        paths = make_paths(10)
        truth = make_truth([("ghost.gcode", "ID1")])
        with pytest.raises(ValueError):
            confusion(make_flags([]), truth, paths)

    @given(st.data())
    def test_property_counts_partition_the_corpus(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        paths = make_paths(n)
        victim_idx = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
        )
        flag_idx = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
        )
        truth = make_truth([(paths[i], "ID3") for i in sorted(victim_idx)])
        flags = make_flags([paths[i] for i in sorted(flag_idx)])
        cm = confusion(flags, truth, paths)
        assert cm.tp + cm.fp + cm.tn + cm.fn == n
        assert cm.tp + cm.fn == len(victim_idx)
        assert cm.tp + cm.fp == len(flag_idx)
        assert min(cm.as_tuple()) >= 0


class TestPerStrategyRecall:
    def test_mixed_detection(self):
        paths = make_paths(30)
        victims = [(paths[i], STRATEGY_IDS[i % 6]) for i in range(12)]
        truth = make_truth(victims)
        flags = make_flags([paths[0], paths[6], paths[1]])  # both ID1, one ID2
        ps = per_strategy_recall(flags, truth)
        assert ps["ID1"] == {"total": 2, "detected": 2, "recall": 1.0}
        assert ps["ID2"] == {"total": 2, "detected": 1, "recall": 0.5}
        assert ps["ID3"]["detected"] == 0

    def test_absent_strategies_omitted(self):
        paths = make_paths(10)
        truth = make_truth([(paths[0], "ID4")])
        ps = per_strategy_recall(make_flags([paths[0]]), truth)
        assert set(ps) == {"ID4"}

    def test_totals_match_truth(self):
        paths = make_paths(60)
        victims = [(paths[i], STRATEGY_IDS[i % 6]) for i in range(30)]
        truth = make_truth(victims)
        ps = per_strategy_recall(make_flags([]), truth)
        assert sum(v["total"] for v in ps.values()) == 30
        assert all(v["detected"] == 0 and v["recall"] == 0.0 for v in ps.values())


class TestEmitReport:
    @pytest.fixture()
    def report_setup(self):
        paths = make_paths(24)
        victims = [(paths[i], STRATEGY_IDS[i % 3]) for i in range(6)]
        truth = make_truth(victims, dataset_id="D9")
        hits = make_flags([paths[0], paths[1], paths[23]], detector="combined_stat")
        blanks = make_flags([], detector="single_stat")
        return paths, truth, [hits, blanks]

    def test_json_schema_and_round_trip(self, report_setup, tmp_path):
        paths, truth, flag_sets = report_setup
        report = emit_report(flag_sets, truth, paths, tmp_path)
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded == report
        assert loaded["report_version"] == REPORT_VERSION
        assert loaded["dataset_id"] == "D9"
        assert loaded["total_files"] == 24
        assert loaded["victim_count"] == 6
        combined = loaded["detectors"]["combined_stat"]
        assert combined["confusion"] == {"tp": 2, "fp": 1, "tn": 17, "fn": 4}
        assert combined["per_strategy"]["ID1"]["detected"] == 1
        assert combined["per_strategy"]["ID2"]["detected"] == 1

    def test_csv_schema(self, report_setup, tmp_path):
        paths, truth, flag_sets = report_setup
        emit_report(flag_sets, truth, paths, tmp_path)
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "detector", "tp", "fp", "tn", "fn", "precision", "recall",
            "id1_detected", "id1_total", "id2_detected", "id2_total",
            "id3_detected", "id3_total",
        ]
        assert rows[1][0] == "combined_stat"
        assert rows[1][1:5] == ["2", "1", "17", "4"]
        assert rows[2][0] == "single_stat"
        assert rows[2][1:5] == ["0", "0", "18", "6"]

    def test_inputs_not_mutated(self, report_setup, tmp_path):
        paths, truth, flag_sets = report_setup
        before = [fs.flagged for fs in flag_sets]
        emit_report(flag_sets, truth, paths, tmp_path)
        assert [fs.flagged for fs in flag_sets] == before
        assert len(truth.victims) == 6
