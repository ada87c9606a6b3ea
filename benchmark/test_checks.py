"""Tests of the benchmark's own references and bookkeeping.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import synthetic

ROOT = Path(__file__).resolve().parent.parent


def test_scanner_counts_codes_and_follows_e():
    text = (
        ";header\n"
        "G28\n"
        "G92 E0.00000\n"
        "\n"
        "G1 X1.000 Y2.000 E1.50000 ;inline\n"
        "G0 X3.000 Y2.000\n"
        "G1 X4 E2.25\n"
        "M104 S0\n"
    )
    scan = checks.scan_gcode(text.encode())
    assert scan.total_lines == 8
    assert scan.counts == {"G28": 1, "G92": 1, "G1": 2, "G0": 1, "M104": 1}
    assert scan.final_e == 2.25
    assert checks.scan_features(scan)[:3] == (1, 2, 1)
    assert checks.scan_gcode(b"G1 X1 E5\nG92 E0\n").final_e == 0.0


def test_confusion_counts_by_set_arithmetic():
    universe = {"a", "b", "c", "d", "e"}
    got = checks.confusion_counts({"a", "b", "zz"}, {"b", "c"}, universe)
    assert got == {"tp": 1, "fp": 1, "fn": 1, "tn": 2}


def test_naive_dbscan_counts_self_and_expands_in_index_order():
    x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0], [6.0], [30.0]])
    labels = checks.naive_dbscan(x, eps=1.0, min_samples=3)
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, -1, -1]
    # A border point within reach of two clusters joins the first one.
    x = np.array([[0.0], [0.3], [0.6], [0.9], [1.8], [2.7], [3.0], [3.3], [3.6]])
    assert checks.naive_dbscan(x, eps=1.0, min_samples=4).tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]


def test_dbscan_references_admit_both_roundings_of_a_pair_at_eps():
    x = np.array([[0.0], [1.0], [5.0], [5.5]])
    inside, outside = checks.dbscan_references(x, eps=1.0, min_samples=2)
    assert inside.tolist() == [-1, -1, 0, 0]
    assert outside.tolist() == [0, 0, 1, 1]
    assert [r.tolist() for r in checks.dbscan_references(x, eps=0.7, min_samples=2)] == [[-1, -1, 0, 0]]


def test_ward_cut_separates_groups_and_isolates_outliers():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 0.1, (20, 2))
    b = rng.normal(0.0, 0.1, (20, 2)) + [10.0, 0.0]
    labels = checks.ward_cut_labels(np.vstack([a, b]))
    assert labels.tolist() == [0] * 20 + [1] * 20
    labels = checks.ward_cut_labels(np.vstack([a, [[0.0, 8.0]]]))
    assert labels.tolist() == [0] * 20 + [1]
    assert checks.ward_cut_labels(np.zeros((4, 2))).tolist() == [0, 0, 0, 0]


def test_labels_renumber_in_order_of_first_appearance():
    assert checks.first_appearance([5, 5, 2, -1, 2, 7]).tolist() == [0, 0, 1, -1, 1, 2]


def test_pca_reference_eigenvalues_and_projection():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(500, 3)) * [3.0, 1.0, 0.1]
    values, points = checks.pca_reference(x)
    assert values[0] > values[1] > 0
    assert np.allclose(points.var(axis=0), values)
    z = checks.standardized(np.column_stack([x, np.ones(500)]))
    assert np.allclose(z[:, :3].std(axis=0), 1.0) and not z[:, 3].any()


def test_tiny_cluster_verdict():
    labels = np.array([0, 0, 0, 1, 1, -1])
    flagged, scores = checks.tiny_cluster_verdict(labels, list("abcdef"))
    assert flagged == {"d", "e", "f"}
    assert scores == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3, "d": 0.5, "e": 0.5, "f": 1.0}


def test_identical_trees_ignores_only_the_named_key(tmp_path):
    for name, stamp in (("a", "t1"), ("b", "t2")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "meta.json").write_text(json.dumps({"created": stamp, "x": 1}))
        (tmp_path / name / "data.txt").write_text("same")
    a, b = tmp_path / "a", tmp_path / "b"
    assert checks.identical_trees(a, b, ("meta.json", "created")) == []
    assert checks.identical_trees(a, b) != []
    (b / "data.txt").write_text("other")
    assert checks.identical_trees(a, b, ("meta.json", "created")) != []


def test_sweep_is_seeded_and_plants_documented_shifts():
    one = synthetic.sweep_rows(9, 200, 0.25, 2)
    assert one == synthetic.sweep_rows(9, 200, 0.25, 2)
    assert one != synthetic.sweep_rows(10, 200, 0.25, 2)
    by_path = {row["path"]: row for row in one["rows"]}
    kinds = {v["strategy"] for v in one["victims"]}
    assert kinds == set(synthetic.PLANTED) and len(one["victims"]) == 10
    for row in one["rows"]:
        if row["path"] not in {v["path"] for v in one["victims"]}:
            assert row["G1"] - row["G0"] == synthetic.G1_BASE - synthetic.G0_BASE
            assert row["total_lines"] == row["G0"] + row["G1"] + synthetic.OTHER_LINES
    for victim in one["victims"]:
        row = by_path[victim["path"]]
        if victim["strategy"] in ("ID4", "ID5"):
            assert set(row["histogram"]) - {5}


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == run.per_layer_units()
    assert set(run.layer_values({})) == set(listed)
    assert {w["name"] for w in spec["workloads"]} == set(run.STEPS)


def test_round_spans_read_each_layer_from_the_operation_first():
    setup = {"gcode.parse_document": {"calls": 246}, "synthgen.build_specimen": {"calls": 120}}
    op = {"gcode.parse_document": {"calls": 120}}
    assert run.round_spans(setup, op) == {
        "gcode.parse_document": {"calls": 120},
        "synthgen.build_specimen": {"calls": 120},
    }


def test_tracer_counts_calls_lines_and_self_time():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        from gcodeguard import cli, features

        doc = cli.parse_document("G28\nG1 X1 E1\n;c\n")
        features.extract(doc)
        spans = tracer.to_json_dict()
        assert spans["gcode.parse_document"]["calls"] == 1
        assert spans["gcode.parse_document"]["lines"] == 3
        extract = spans["features.extract"]
        assert extract["child_seconds"] == pytest.approx(spans["gcode.simulate"]["seconds"])
        assert "gcode.parse_line" not in spans
    finally:
        for module in [m for m in sys.modules if m == "gcodeguard" or m.startswith("gcodeguard.")]:
            del sys.modules[module]
