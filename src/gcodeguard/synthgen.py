"""Deterministic generation of synthetic print-job corpora.

Stands in for a slicer. Each specimen is a layered toolpath for a flat
polygonal footprint: a one-loop skirt on the first layer, a tessellated
perimeter every layer, and straight-line infill whose direction cycles per
layer in the bed frame. Because infill directions stay fixed while the part
rotates, command counts vary smoothly with the rotation angle, which is what
gives a rotation sweep its spread of related-but-distinct files.

Determinism: a dataset is fully determined by (spec, count, angular_step,
seed). The only randomness is a per-layer phase jitter for the infill grid,
drawn from a ``random.Random`` seeded per file.

Every E token is written with exactly 5 decimal places, X/Y/Z with 3. E is
the running sum of each extruding move's length times the flow, added move
by move in file order by one ``itertools.accumulate``. The infill of every
layer is computed in one numpy pass per file: each elementwise operation
rounds as the same Python float operation does, and a stable sort keeps
ties in edge order, so the segments have the bits a per-row loop gives.
Lengths use ``math.hypot``, which ``np.hypot`` does not match in the last
bit. The perimeter is the same on every layer, so its text is formatted
once per file with a slot for each E; each run of moves (the skirt, a
perimeter, a layer's infill travel/extrude pairs) is then filled in by one
``%``-format, which rounds as the f-string ``:.3f`` does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from ._json import read_record, write_json
from ._pool import map_ordered
from .gcode import GcodeDocument, parse_document

__all__ = [
    "DegenerateGeometryError",
    "SpecimenSpec",
    "ManifestEntry",
    "DatasetManifest",
    "preset_spec",
    "build_specimen",
    "check_sweep",
    "generate_dataset",
    "GENERATOR_VERSION",
]

GENERATOR_VERSION = "0.1.0"

TRAVEL_FEED = 9000
PRINT_FEED = 1800

# 1.75 mm filament: E values are millimetres of filament, so flow is
# (extruded track cross-section) / (filament cross-section).
_FILAMENT_AREA = math.pi * 1.75 * 1.75 / 4.0


class DegenerateGeometryError(ValueError):
    """The spec describes a footprint or stack that cannot be printed."""


@dataclass(frozen=True)
class SpecimenSpec:
    """Geometry and process parameters for one part.

    ``footprint`` is a simple polygon in the model frame, roughly centred on
    the origin; it is rotated about the origin and then placed at
    ``bed_center``. ``infill_directions`` are bed-frame angles in degrees,
    cycled layer by layer. ``perimeter_segment_length`` is the tessellation
    pitch for perimeter edges (real slicers emit tessellated outlines, and a
    finely split perimeter keeps the per-file command total dominated by a
    rotation-invariant term).
    """

    name: str
    footprint: tuple[tuple[float, float], ...]
    height: float
    layer_height: float
    infill_line_distance: float
    infill_directions: tuple[float, ...] = (45.0, -45.0)
    nozzle_width: float = 0.4
    perimeter_segment_length: float = 1.6
    skirt_margin: float = 3.0
    bed_center: tuple[float, float] = (110.0, 110.0)

    @property
    def layer_count(self) -> int:
        return int(round(self.height / self.layer_height))

    def validate(self) -> None:
        if len(self.footprint) < 3:
            raise DegenerateGeometryError(f"{self.name}: footprint needs >= 3 vertices")
        if self.height <= 0 or self.layer_height <= 0 or self.layer_count < 1:
            raise DegenerateGeometryError(f"{self.name}: non-positive layer stack")
        if self.infill_line_distance <= 0 or self.nozzle_width <= 0:
            raise DegenerateGeometryError(f"{self.name}: non-positive line widths")
        if self.perimeter_segment_length <= 0:
            raise DegenerateGeometryError(f"{self.name}: non-positive tessellation pitch")
        if not self.infill_directions:
            raise DegenerateGeometryError(f"{self.name}: no infill directions")
        area = _polygon_area(self.footprint)
        if area < self.nozzle_width * self.nozzle_width:
            raise DegenerateGeometryError(f"{self.name}: footprint area {area:.4g} too small")
        if not _polygon_is_simple(self.footprint):
            raise DegenerateGeometryError(f"{self.name}: footprint self-intersects")


def preset_spec(dataset_id: str) -> SpecimenSpec:
    """Built-in specimen for a dataset id.

    ``D1`` is a 100x20 mm rectangular bar with two alternating infill
    directions; ``D2`` is an L-bracket with three.
    """
    if dataset_id == "D1":
        return SpecimenSpec(
            name="bar100x20",
            footprint=((-50.0, -10.0), (50.0, -10.0), (50.0, 10.0), (-50.0, 10.0)),
            height=4.0,
            layer_height=0.2,
            infill_line_distance=2.0,
            infill_directions=(45.0, -45.0),
        )
    if dataset_id == "D2":
        return SpecimenSpec(
            name="lbracket60",
            footprint=(
                (-30.0, -30.0),
                (30.0, -30.0),
                (30.0, -5.0),
                (-5.0, -5.0),
                (-5.0, 30.0),
                (-30.0, 30.0),
            ),
            height=6.0,
            layer_height=0.2,
            infill_line_distance=2.0,
            infill_directions=(45.0, -45.0, 30.0),
            perimeter_segment_length=1.9,
        )
    raise ValueError(f"unknown preset dataset id: {dataset_id!r}")


def _polygon_area(poly: tuple[tuple[float, float], ...]) -> float:
    total = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_cross(p0, p1, q0, q1) -> bool:
    d1 = _orient(*q0, *q1, *p0)
    d2 = _orient(*q0, *q1, *p1)
    d3 = _orient(*p0, *p1, *q0)
    d4 = _orient(*p0, *p1, *q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _polygon_is_simple(poly: tuple[tuple[float, float], ...]) -> bool:
    m = len(poly)
    edges = [(poly[i], poly[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            # Adjacent edges share a vertex; only proper crossings count.
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


def _rotate_xy(x: float, y: float, angle_deg: float) -> tuple[float, float]:
    # Quarter turns are exact so that symmetry comparisons (0 vs 180 degrees)
    # are not at the mercy of cos/sin rounding.
    a = angle_deg % 360.0
    if a == 0.0:
        return (x, y)
    if a == 90.0:
        return (-y, x)
    if a == 180.0:
        return (-x, -y)
    if a == 270.0:
        return (y, -x)
    r = math.radians(a)
    c, s = math.cos(r), math.sin(r)
    return (x * c - y * s, x * s + y * c)


def _placed_footprint(spec: SpecimenSpec, angle_deg: float) -> list[tuple[float, float]]:
    cx, cy = spec.bed_center
    out = []
    for x, y in spec.footprint:
        rx, ry = _rotate_xy(x, y, angle_deg)
        out.append((rx + cx, ry + cy))
    return out


def _tessellate_loop(
    poly: list[tuple[float, float]], pitch: float
) -> list[tuple[float, float]]:
    """All waypoints along the closed outline, excluding the start point."""
    points: list[tuple[float, float]] = []
    m = len(poly)
    for i in range(m):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % m]
        length = math.hypot(bx - ax, by - ay)
        pieces = max(1, math.ceil(length / pitch))
        for k in range(1, pieces + 1):
            s = k / pieces
            points.append((ax + s * (bx - ax), ay + s * (by - ay)))
    return points


def _infill(
    poly: list[tuple[float, float]], directions: tuple[float, ...], spacing: float, jitters: list
) -> tuple[np.ndarray, list[int]]:
    """Every layer's infill: a family of parallel lines ``spacing`` apart,
    along ``directions`` cycled layer by layer, clipped to the polygon
    (even-odd rule). Each layer has its own jitter.

    Returns the segments as rows ``(px, py, qx, qy)`` in file order and how
    many of them each layer has. A family is anchored at the centre of the
    polygon's projection onto the line normal, offset by the layer's jitter;
    anchoring at the centre keeps the line count invariant under point
    reflection of the polygon. Line ``k`` runs forward for even ``k`` and
    backward for odd ``k``: serpentine order keeps travels short.
    """
    families = {}
    for direction in directions:
        r = math.radians(direction)
        ux, uy = math.cos(r), math.sin(r)
        nx, ny = -uy, ux
        proj = [px * nx + py * ny for px, py in poly]
        lo, hi = min(proj), max(proj)
        families[direction] = (ux, uy, proj, (lo + hi) / 2.0, (hi - lo) / 2.0)
    layers = []
    for layer, jitter in enumerate(jitters):
        ux, uy, proj, cmid, half = families[directions[layer % len(directions)]]
        kmin = math.ceil((-half - jitter) / spacing)
        kmax = math.floor((half - jitter) / spacing)
        layers.append((kmin, kmax + 1 - kmin, cmid + jitter, ux, uy, *proj))
    # One row per line of every layer, in file order.
    table = np.array(layers)
    kmin, lines = table[:, 0].astype(int), table[:, 1].astype(int)
    layer = np.repeat(np.arange(len(layers)), lines)
    k = kmin[layer] + np.arange(len(layer)) - (np.cumsum(lines) - lines)[layer]
    c = table[layer, 2] + k * spacing
    proj = table[layer, 5:]
    da = proj - c[:, None]
    db = np.roll(proj, -1, axis=1) - c[:, None]
    row, edge = np.nonzero((da >= 0.0) != (db >= 0.0))
    da, db = da[row, edge], db[row, edge]
    s = da / (da - db)
    ax, ay = np.array(poly).T
    px = ax[edge] + s * (np.roll(ax, -1) - ax)[edge]
    py = ay[edge] + s * (np.roll(ay, -1) - ay)[edge]
    t = px * table[layer, 3][row] + py * table[layer, 4][row]
    # Each row's crossings by t, paired in turn; the sort is stable, so ties
    # keep edge order. Every row has an even count: going round the closed
    # outline, ``proj >= c`` changes an even number of times.
    order = np.lexsort((t, row))
    row, px, py, t = row[order][0::2], px[order], py[order], t[order]
    long = t[1::2] - t[0::2] > 1e-9
    row = row[long]
    pairs = np.column_stack((px[0::2], py[0::2], px[1::2], py[1::2]))[long]
    # A backward row: its segments in reverse order, each one reversed.
    odd = k[row] % 2 == 1
    pairs[odd] = pairs[odd][:, [2, 3, 0, 1]]
    index = np.arange(len(row))
    order = np.lexsort((np.where(odd, -index, index), row))
    return pairs[order], np.bincount(layer[row], minlength=len(layers)).tolist()


def build_specimen(spec: SpecimenSpec, angle_deg: float, seed: int) -> GcodeDocument:
    """The toolpath for ``spec`` rotated by ``angle_deg`` about its centre.

    The document is parsed from the emitted text, so it serializes back to
    exactly the bytes that ``generate_dataset`` writes to disk.
    """
    return parse_document(_emit_specimen(spec, angle_deg, seed))


# Line templates; a run of moves repeats one and fills it in one %-format.
_EXTRUDE = "G1 X%.3f Y%.3f E%.5f\n"
_INFILL_PAIR = "G0 X%.3f Y%.3f\n" + _EXTRUDE


def _lengths(points: list[tuple[float, float]], flow: float) -> list[float]:
    """The filament each move along ``points`` extrudes, from the first point on."""
    return [math.hypot(bx - ax, by - ay) * flow for (ax, ay), (bx, by) in zip(points, points[1:])]


def _emit_specimen(spec: SpecimenSpec, angle_deg: float, seed: int) -> str:
    """The g-code text of one specimen, one command or comment per line."""
    spec.validate()
    if not math.isfinite(angle_deg):
        raise ValueError(f"angle must be finite, got {angle_deg!r}")
    rng = random.Random(seed)
    # One jitter per layer, drawn before any geometry, so the random stream
    # does not depend on the angle.
    jitters = [rng.uniform(0.0, spec.infill_line_distance) for _ in range(spec.layer_count)]
    poly = _placed_footprint(spec, angle_deg)
    flow = spec.nozzle_width * spec.layer_height / _FILAMENT_AREA
    xs, ys, m = [p[0] for p in poly], [p[1] for p in poly], spec.skirt_margin
    x0, y0, x1, y1 = min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m
    skirt = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    start = poly[0]
    # Every layer's perimeter is the same run of moves from ``start``: its
    # lengths, and its text with a slot for each E, are made once.
    perimeter = _tessellate_loop(poly, spec.perimeter_segment_length)
    loop = "".join("G1 X%.3f Y%.3f E%%.5f\n" % p for p in perimeter)
    loop_lengths = _lengths([start, *perimeter], flow)
    segments, per_layer = _infill(poly, spec.infill_directions, spec.infill_line_distance, jitters)
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs.
    deltas = (segments[:, 2:] - segments[:, :2]).tolist()
    infill_lengths = [math.hypot(dx, dy) * flow for dx, dy in deltas]
    bounds = list(zip([0, *accumulate(per_layer)], accumulate(per_layer)))
    lengths = _lengths(skirt, flow)
    for a, b in bounds:
        lengths += loop_lengths
        lengths += infill_lengths[a:b]
    # E is the running sum in file order, added move by move.
    e = list(accumulate(lengths))

    out = [
        f";generated by gcodeguard v{GENERATOR_VERSION}\n;specimen:{spec.name}\n"
        "M140 S60\nM104 S200\nM105\nG28\nM82\nG92 E0.00000\nM106 S85\n"
    ]
    i = len(skirt) - 1
    for layer, (a, b) in enumerate(bounds):
        z = (layer + 1) * spec.layer_height
        out.append(f";LAYER:{layer}\n")
        if layer == 0:
            out.append("G0 F%d X%.3f Y%.3f Z%.3f\n" % (TRAVEL_FEED, *skirt[0], z))
            values = [v for (x, y), ex in zip(skirt[1:], e) for v in (x, y, ex)]
            out.append((f"G1 F{PRINT_FEED} " + _EXTRUDE[3:] + _EXTRUDE * 3) % tuple(values))
            out.append("G0 X%.3f Y%.3f\n" % start + loop % tuple(e[i : i + len(perimeter)]))
        else:
            out.append("G0 F%d X%.3f Y%.3f Z%.3f\n" % (TRAVEL_FEED, *start, z))
            out.append((f"G1 F{PRINT_FEED} " + loop[3:]) % tuple(e[i : i + len(perimeter)]))
        i += len(perimeter)
        values = np.column_stack((segments[a:b], e[i : i + b - a])).ravel().tolist()
        out.append(_INFILL_PAIR * (b - a) % tuple(values))
        i += b - a

    out.append("M107\nM140 S0\nM104 S0\nM84\n")
    return "".join(out)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    angle_deg: float
    seed: int


@dataclass(frozen=True)
class DatasetManifest:
    """Index of one generated dataset; each path is a distinct bare
    ``.gcode`` file name in the manifest's directory."""

    dataset_id: str
    generator_version: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name in (entry.path for entry in self.entries):
            if not isinstance(name, str) or not name.endswith(".gcode") or {"/", "\\"} & set(name):
                raise ValueError(f"entry path must be a bare .gcode file name, got {name!r}")
            if name in seen:
                raise ValueError(f"entry path listed twice: {name!r}")
            seen.add(name)

    def save(self, path: str | Path) -> None:
        write_json(path, self)

    @staticmethod
    def load(path: str | Path) -> "DatasetManifest":
        return read_record(path, lambda data: DatasetManifest(
            dataset_id=data["dataset_id"],
            generator_version=data["generator_version"],
            entries=tuple(
                ManifestEntry(en["path"], float(en["angle_deg"]), int(en["seed"]))
                for en in data["entries"]
            ),
        ))


def _write_specimen(spec: SpecimenSpec, out_dir: Path, entry: ManifestEntry) -> None:
    # Written as emitted, without a parse: tests check that every generated
    # file parses and serializes back to the same bytes.
    text = _emit_specimen(spec, entry.angle_deg, entry.seed)
    (out_dir / entry.path).write_bytes(text.encode("ascii"))


def check_sweep(count: int, angular_step: float) -> None:
    """Raise ``ValueError`` unless ``count >= 1`` and ``0 < angular_step < inf``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 < angular_step < math.inf:
        raise ValueError(f"angular_step must be a finite number > 0, got {angular_step}")


def generate_dataset(
    spec: SpecimenSpec,
    count: int,
    angular_step: float,
    out_dir: str | Path,
    seed: int,
    dataset_id: str,
) -> DatasetManifest:
    """Write ``count`` files at angles ``0, step, 2*step, ...`` plus a manifest.

    Angles are recorded unwrapped (they may exceed 360 when count * step
    does) so every entry keeps a unique angle; rotation itself is modulo 360.
    Per-file seeds derive from ``seed`` through one ``random.Random`` stream,
    so a dataset is reproducible from the manifest alone.
    """
    check_sweep(count, angular_step)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    entries = tuple(
        ManifestEntry(path=f"{spec.name}_{i:04d}.gcode", angle_deg=i * angular_step,
                      seed=rng.randrange(2**32))
        for i in range(count)
    )
    map_ordered(partial(_write_specimen, spec, out_path), entries)
    manifest = DatasetManifest(
        dataset_id=dataset_id,
        generator_version=GENERATOR_VERSION,
        entries=entries,
    )
    manifest.save(out_path / "manifest.json")
    return manifest
