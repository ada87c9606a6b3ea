"""Feature extraction, matrix assembly, and standardization."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcodeguard.features import (
    FEATURE_NAMES,
    build_matrix,
    extract,
    standardize,
    write_features_csv,
)
from gcodeguard.gcode import parse_document
from gcodeguard.mutate import Strategy, apply_strategy

from conftest import doc_from


class TestExtract:
    def test_canonical_order_and_width(self):
        assert len(FEATURE_NAMES) == 11
        assert FEATURE_NAMES[-1] == "total_lines"

    def test_three_line_snippet(self):
        vec = extract(doc_from("G1 X1 Y1 E1\nG1 X5 Y1 E2\nG1 X5 Y5 E3\n"))
        by_name = dict(zip(FEATURE_NAMES, vec.counts))
        assert by_name["G1"] == 3
        assert by_name["G0"] == 0
        assert by_name["total_lines"] == 3

    def test_empty_document(self):
        vec = extract(parse_document(b""))
        assert vec.counts == (0,) * 11
        assert vec.total_extruded == 0.0

    def test_pure_function(self, tiny_doc):
        assert extract(tiny_doc) == extract(tiny_doc)

    def test_conversion_shifts_counts_by_log(self, tiny_doc):
        mutated, log = apply_strategy(tiny_doc, Strategy.default("ID1"))
        before = dict(zip(FEATURE_NAMES, extract(tiny_doc).counts))
        after = dict(zip(FEATURE_NAMES, extract(mutated).counts))
        assert before["G1"] - after["G1"] == log.lines_rewritten
        assert after["G0"] - before["G0"] == log.lines_rewritten
        assert before["total_lines"] == after["total_lines"]


class TestBuildMatrix:
    def test_rows_align_with_input_order(self, tiny_corpus):
        out, manifest = tiny_corpus
        vecs = [
            extract(parse_document((out / en.path).read_bytes()), path=en.path)
            for en in manifest.entries
        ]
        fm = build_matrix(vecs)
        assert fm.paths == tuple(en.path for en in manifest.entries)
        assert fm.matrix.shape == (12, 11)

    def test_g1_column_matches_naive_recount(self, tiny_corpus):
        out, manifest = tiny_corpus
        vecs = []
        naive = []
        for en in manifest.entries:
            data = (out / en.path).read_bytes()
            vecs.append(extract(parse_document(data), path=en.path))
            naive.append(
                sum(
                    1
                    for raw in data.decode().splitlines()
                    if raw.split(" ")[0] == "G1" or raw.strip() == "G1"
                )
            )
        fm = build_matrix(vecs)
        assert fm.column("G1").tolist() == naive

    def test_pristine_corpus_has_no_decimal_anomalies(self, tiny_corpus):
        out, manifest = tiny_corpus
        vecs = [
            extract(parse_document((out / en.path).read_bytes()), path=en.path)
            for en in manifest.entries
        ]
        fm = build_matrix(vecs)
        assert fm.e_decimal_mode == 5
        assert fm.e_decimal_anomalies.sum() == 0

    def test_trimmed_tokens_counted_as_anomalies(self, tiny_corpus):
        out, manifest = tiny_corpus
        vecs = []
        for i, en in enumerate(manifest.entries):
            doc = parse_document((out / en.path).read_bytes())
            if i == 0:
                doc, _ = apply_strategy(doc, Strategy.default("ID5"))
            vecs.append(extract(doc, path=en.path))
        fm = build_matrix(vecs)
        assert fm.e_decimal_anomalies[0] > 0
        assert fm.e_decimal_anomalies[1:].sum() == 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_matrix([])


class TestStandardize:
    def test_moments(self):
        rng = np.random.default_rng(7)
        z = standardize(rng.normal(3.0, 2.5, size=(40, 5)))
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_constant_column_becomes_zero(self):
        m = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        z = standardize(m)
        assert np.all(z[:, 1] == 0.0)

    def test_constant_column_off_by_one_ulp_mean_becomes_zero(self):
        # The rounded mean of three copies of this value misses it by one
        # ulp, so centring on the mean alone would score every row +-1.
        z = standardize(np.full((3, 3), -971453.464122493))
        assert np.all(z == 0.0)

    def test_two_point_column_symmetry(self):
        z = standardize(np.array([[1.0], [3.0]]))
        assert z.tolist() == [[-1.0], [1.0]]

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=3,
                max_size=3,
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_property_bounded_and_centered(self, rows):
        z = standardize(np.array(rows))
        assert np.abs(z.mean(axis=0)).max() < 1e-6
        assert np.isfinite(z).all()


class TestFeaturesCsv:
    def test_header_and_row_count(self, tiny_corpus, tmp_path):
        out, manifest = tiny_corpus
        vecs = [
            extract(parse_document((out / en.path).read_bytes()), path=en.path)
            for en in manifest.entries
        ]
        fm = build_matrix(vecs)
        csv_path = tmp_path / "features.csv"
        write_features_csv(fm, csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["path", "g0"]
        assert rows[0][-3:] == ["total_extruded", "e_decimal_mode", "e_decimal_anomalies"]
        assert len(rows) == 13
        assert rows[1][0] == manifest.entries[0].path
