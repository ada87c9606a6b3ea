"""Synthetic corpus generator behavior."""

from __future__ import annotations

import json

import pytest

from gcodeguard import synthgen
from gcodeguard.gcode import parse_document, serialize, simulate
from gcodeguard.synthgen import (
    GENERATOR_VERSION,
    DatasetManifest,
    DegenerateGeometryError,
    SpecimenSpec,
    build_specimen,
    generate_dataset,
    preset_spec,
)

from conftest import TINY_SPEC


def g1_count(doc) -> int:
    return sum(1 for record in doc.lines if record[1] == "G1")


class TestSpecValidation:
    def test_presets_are_valid(self):
        for dataset_id in ("D1", "D2"):
            preset_spec(dataset_id).validate()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_spec("D9")

    def test_too_small_footprint(self):
        spec = SpecimenSpec(
            name="dot",
            footprint=((0.0, 0.0), (0.1, 0.0), (0.1, 0.1)),
            height=1.0,
            layer_height=0.2,
            infill_line_distance=2.0,
        )
        with pytest.raises(DegenerateGeometryError, match="too small"):
            spec.validate()

    def test_self_intersecting_footprint(self):
        # The fourth edge cuts back through the bottom edge.
        crossed = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (-5.0, 10.0), (3.0, -3.0))
        spec = SpecimenSpec(
            name="crossed",
            footprint=crossed,
            height=1.0,
            layer_height=0.2,
            infill_line_distance=2.0,
        )
        with pytest.raises(DegenerateGeometryError, match="self-intersects"):
            spec.validate()

    def test_non_positive_stack(self):
        spec = SpecimenSpec(
            name="flat",
            footprint=TINY_SPEC.footprint,
            height=0.0,
            layer_height=0.2,
            infill_line_distance=2.0,
        )
        with pytest.raises(DegenerateGeometryError):
            spec.validate()


class TestBuildSpecimen:
    def test_layer_markers_cover_stack(self):
        doc = build_specimen(preset_spec("D1"), angle_deg=0.0, seed=1)
        layers = [layer for _, layer in doc.layer_marks]
        assert layers == list(range(20))

    def test_determinism(self):
        a = build_specimen(TINY_SPEC, angle_deg=123.0, seed=77)
        b = build_specimen(TINY_SPEC, angle_deg=123.0, seed=77)
        assert serialize(a) == serialize(b)

    def test_seed_changes_bytes(self):
        a = build_specimen(TINY_SPEC, angle_deg=123.0, seed=77)
        b = build_specimen(TINY_SPEC, angle_deg=123.0, seed=78)
        assert serialize(a) != serialize(b)

    def test_angles_change_counts(self):
        a = build_specimen(preset_spec("D1"), angle_deg=0.0, seed=5)
        b = build_specimen(preset_spec("D1"), angle_deg=1.0, seed=5)
        assert g1_count(a) != g1_count(b)

    def test_half_turn_symmetry(self):
        # A 180-degree rotation maps the rectangle onto itself, so with the
        # same seed the command counts must match exactly.
        a = build_specimen(preset_spec("D1"), angle_deg=0.0, seed=5)
        b = build_specimen(preset_spec("D1"), angle_deg=180.0, seed=5)
        assert g1_count(a) == g1_count(b)

    def test_e_tokens_all_five_decimals(self, tiny_doc):
        for raw, _, params, _, _ in tiny_doc.lines:
            for letter, text in params:
                if letter == "E":
                    assert len(text.partition(".")[2]) == 5, f"{raw!r}"

    def test_simulates_with_positive_extrusion(self, tiny_doc):
        summary = simulate(tiny_doc)
        assert summary.total_extruded > 0.0

    def test_bounds_within_footprint_plus_skirt(self, tiny_doc):
        summary = simulate(tiny_doc)
        cx, cy = TINY_SPEC.bed_center
        # Rotations keep the footprint inside its circumradius; the skirt
        # adds its margin around the axis-aligned bounding box.
        radius = max((x * x + y * y) ** 0.5 for x, y in TINY_SPEC.footprint)
        limit = radius + TINY_SPEC.skirt_margin + 1e-9
        for axis, center in (("X", cx), ("Y", cy)):
            lo, hi = summary.bounds[axis]
            assert center - limit <= lo <= hi <= center + limit

    def test_starts_with_preamble_and_absolute_mode(self, tiny_doc):
        codes = [record[1] for record in tiny_doc.lines if record[1] is not None]
        assert "M82" in codes[:8]
        assert codes.index("G28") < codes.index("M82")

    def test_bad_angle_rejected(self):
        with pytest.raises(ValueError):
            build_specimen(TINY_SPEC, angle_deg=float("nan"), seed=1)


class TestGenerateDataset:
    def test_count_and_manifest(self, tiny_corpus):
        out, manifest = tiny_corpus
        files = sorted(p.name for p in out.glob("*.gcode"))
        assert len(files) == 12
        assert [en.path for en in manifest.entries] == files
        assert manifest.generator_version == GENERATOR_VERSION

    def test_manifest_angles_unique_and_stepped(self, tiny_corpus):
        _, manifest = tiny_corpus
        angles = [en.angle_deg for en in manifest.entries]
        assert len(set(angles)) == len(angles)
        assert angles == [i * 30.0 for i in range(12)]

    def test_manifest_round_trips(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        manifest.save(tmp_path / "m.json")
        assert DatasetManifest.load(tmp_path / "m.json") == manifest

    def test_manifest_json_schema(self, tiny_corpus):
        out, _ = tiny_corpus
        data = json.loads((out / "manifest.json").read_text())
        assert set(data) == {"dataset_id", "generator_version", "entries"}
        assert set(data["entries"][0]) == {"path", "angle_deg", "seed"}

    def test_single_file(self, tmp_path):
        manifest = generate_dataset(TINY_SPEC, 1, 1.0, tmp_path, seed=3, dataset_id="T")
        assert len(manifest.entries) == 1
        assert (tmp_path / manifest.entries[0].path).exists()

    def test_same_seed_regenerates_identical_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_dataset(TINY_SPEC, 3, 10.0, a_dir, seed=31, dataset_id="T")
        generate_dataset(TINY_SPEC, 3, 10.0, b_dir, seed=31, dataset_id="T")
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(TINY_SPEC, 0, 1.0, tmp_path, seed=3, dataset_id="T")

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_step_rejected_before_writing(self, step, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^angular_step must be a finite number > 0, got"):
            generate_dataset(TINY_SPEC, 3, step, out, seed=3, dataset_id="T")
        assert not out.exists()

    def test_files_parse_and_round_trip(self, tiny_corpus):
        out, manifest = tiny_corpus
        for entry in manifest.entries:
            data = (out / entry.path).read_bytes()
            assert serialize(parse_document(data)) == data

    def test_reconstruction_from_manifest_entry(self, tiny_corpus):
        out, manifest = tiny_corpus
        for entry in manifest.entries:
            doc = build_specimen(TINY_SPEC, entry.angle_deg, entry.seed)
            assert serialize(doc) == (out / entry.path).read_bytes(), entry.path

    def test_writes_without_parsing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_dataset parsed its own output")

        monkeypatch.setattr(synthgen, "parse_document", refuse)
        manifest = generate_dataset(TINY_SPEC, 3, 45.0, tmp_path, seed=8, dataset_id="T")
        assert len(list(tmp_path.glob("*.gcode"))) == len(manifest.entries) == 3
