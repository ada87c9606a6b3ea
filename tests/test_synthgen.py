"""Synthetic corpus generator behavior."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# sha256 of ``_emit_specimen`` text, computed with the generator that
# formatted one move per f-string. Quarter turns take the exact rotation
# branch; 1e6 degrees wraps to 280.
EMITTED_SHA256 = [
    ("D1", 0.0, 0, "a73962866c1ac6fc34860948d8a69adf454a3dbe4005f2e995cbf6347a754270"),
    ("D1", 90.0, 7, "a4ad5429ac408f149ca9766d0735b9eea0d0a1e58889507f2cbf70d972c35393"),
    ("D1", 180.0, 0, "ba70de3ed24fd801b0471bd8010a3263ec385a8533397d10678f7decda778d3c"),
    ("D1", 270.0, 2**32 - 1, "f87e50463c81f6cd48ebf751fb254019bbaa6613fac7768abf9d8fff712b49fc"),
    ("D1", 360.0, 7, "6ba7593bad74a73b88c7728b621078195a99c15c4024c3d4863a6c6d358d5cdd"),
    ("D1", 0.25, 0, "1c0da8348d131b136ddff8e11c5147ffdca811d2b2766fa31c836241a0f97564"),
    ("D1", 137.5, 2**32 - 1, "7528f48dc236920f08b1f5828af46cc516e47d9e00a9a904f72055eb022147fb"),
    ("D1", -45.0, 7, "56a20eecef100f4e6b182d97d7ee791d3300efab8ea6b050e1f6ef7055a539af"),
    ("D1", 1e6, 0, "3c314dddf49469a742e79341bd8beb6a5ea5e54e5fd963348c1d533c1129c551"),
    ("D2", 0.0, 0, "9ab7ae3f485ad6f7d74e2d9bec9191d52411be33c9ba2f475f7f812ede237d51"),
    ("D2", 90.0, 7, "3ad74d51bf7881a109212e58845badafbb929b8e068fbada0ce86d71706564e6"),
    ("D2", 180.0, 0, "6537a423ef563ac30da0525e3414d3dc8f287e037ea37db06577a240b763e4e7"),
    ("D2", 270.0, 2**32 - 1, "680d068fd601a3a475457bb0c17c660a00b1fdc9a03f83e2e7f593b30268f5a1"),
    ("D2", 360.0, 7, "445f553d6e814695e7ba987b60909f6408156e96740941fb06c7e6222c520edb"),
    ("D2", 0.25, 0, "f170e383a4585901066c3ea8d4a953fc991a4b96544b05e7a5ca7ceb8fbb1982"),
    ("D2", 137.5, 2**32 - 1, "afff8555f09dc12f9fb3b30ba7ad59e54a7a837e34742b25aa955739cf8671a0"),
    ("D2", -45.0, 7, "f6665028ee2ba0bd6547e023fc4207eff07877e2bf79816234e40a7e42f16e4b"),
    ("D2", 1e6, 0, "0c82d839f9b1465ee93e4d410789b235d1fcec2abc171d5766cf5846da46ee57"),
]


@pytest.mark.parametrize("dataset_id, angle, seed, digest", EMITTED_SHA256)
def test_emitted_bytes_match_history(dataset_id, angle, seed, digest):
    text = synthgen._emit_specimen(preset_spec(dataset_id), angle, seed)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def loop_infill_segments(poly, direction_deg, spacing, jitter):
    """One layer's infill as the generator computed it row by row before it
    computed every layer in one array pass: the reference for ``_infill``."""
    r = math.radians(direction_deg)
    ux, uy = math.cos(r), math.sin(r)
    nx, ny = -uy, ux
    proj = [px * nx + py * ny for px, py in poly]
    lo, hi = min(proj), max(proj)
    cmid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0

    kmin = math.ceil((-half - jitter) / spacing)
    kmax = math.floor((half - jitter) / spacing)
    segments = []
    m = len(poly)
    for k in range(kmin, kmax + 1):
        c = cmid + jitter + k * spacing
        ts = []
        for i in range(m):
            da = proj[i] - c
            db = proj[(i + 1) % m] - c
            if (da >= 0.0) != (db >= 0.0):
                s = da / (da - db)
                ax, ay = poly[i]
                bx, by = poly[(i + 1) % m]
                px, py = ax + s * (bx - ax), ay + s * (by - ay)
                ts.append((px * ux + py * uy, px, py))
        ts.sort(key=lambda item: item[0])
        if len(ts) % 2:
            ts.pop()
        row = []
        for a, b in zip(ts[0::2], ts[1::2]):
            if b[0] - a[0] > 1e-9:
                row.append(((a[1], a[2]), (b[1], b[2])))
        if k % 2:
            row = [(q, p) for p, q in reversed(row)]
        segments.extend(row)
    return segments


@st.composite
def footprints(draw):
    """A rectangle or an L with axis-aligned edges and integer vertices, in
    either winding, so that scanlines hit vertices and crossings tie."""
    x0, x1 = sorted(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=2, unique=True)))
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if draw(st.booleans()) and x1 - x0 > 1 and y1 - y0 > 1:
        xm, ym = draw(st.integers(x0 + 1, x1 - 1)), draw(st.integers(y0 + 1, y1 - 1))
        poly = [(x0, y0), (x1, y0), (x1, ym), (xm, ym), (xm, y1), (x0, y1)]
        for _ in range(draw(st.integers(0, 3))):
            poly = [(-y, x) for x, y in poly]
    if draw(st.booleans()):
        poly.reverse()
    return [(float(x), float(y)) for x, y in poly]


directions = st.one_of(
    st.sampled_from([0.0, 90.0, 180.0, 270.0, 45.0, -45.0, 135.0, 30.0]),
    st.floats(-360.0, 360.0),
)
jitters = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(0.0, 4.0))


@given(
    poly=footprints(),
    spacing=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.25, 6.0)),
    layers=st.lists(st.tuples(directions, jitters), min_size=1, max_size=6),
)
def test_property_infill_matches_the_loop(poly, spacing, layers):
    pairs, per_layer = synthgen._infill(
        poly, [d for d, _ in layers], spacing, [j for _, j in layers]
    )
    loops = [loop_infill_segments(poly, d, spacing, j) for d, j in layers]
    assert per_layer == [len(segments) for segments in loops]
    expected = np.array([[*p, *q] for segments in loops for p, q in segments], dtype=float)
    assert pairs.shape == (sum(per_layer), 4)
    # Bits, signed zeros included, and order.
    assert pairs.view(np.int64).tolist() == expected.reshape(-1, 4).view(np.int64).tolist()
