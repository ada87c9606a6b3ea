"""Seeded synthetic feature rows for the clustering workload.

The rows stand in for the features of an L-bracket rotation sweep (the
``D2`` specimen) at a fixed angular step, without generating or parsing any
g-code. The count model follows the generator's structure:

* 30 layers; infill direction cycles through 45, -45 and 30 degrees.
* On a layer, the number of infill segments is
  ``floor(SEGMENT_SCALE * (|cos a| + |sin a|) + u)``, where ``a`` is the part
  angle minus the infill direction and ``u`` is a uniform phase jitter drawn
  per layer from the seed. ``|cos a| + |sin a|`` is the width of a square
  footprint across the infill direction, relative to its side.
* Every infill segment is one G0 travel plus one G1 extrusion; the rest of
  the toolpath (skirt, tessellated perimeters, layer travels, header and
  footer) is constant: ``G0 = 31 + S``, ``G1 = 3904 + S`` and
  ``total_lines = G0 + G1 + 43`` for ``S`` infill segments in the file. These
  constants reproduce the D2 files that ``gcodeguard generate`` writes.
* Every E token has 5 decimals.

Planted victims copy the count effect of five sabotage strategies applied
to every layer (the ``full100`` range), where ``k = round((G1 - 4) / 4)`` is
a quarter of the file's extruding moves:

    ID1  G1 - k, G0 + k          (moves turned into travels)
    ID2  G0 + k, total + k       (travels plus in-place blobs)
    ID4  k E tokens off-mode     (re-rendered E values, 1..4 decimals)
    ID5  k E tokens off-mode
    ID6  G1 - k, total - k       (moves deleted)

ID3 (halved extrusion) changes no count and is not planted.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

LAYERS = 30
DIRECTIONS = (45.0, -45.0, 30.0)
SEGMENT_SCALE = 30.0
G0_BASE = 31
G1_BASE = 3904
OTHER_LINES = 43
CONSTANT_CODES = {"G92": 1, "M82": 1, "M84": 1, "M104": 2, "M105": 1, "M106": 1, "M107": 1, "M140": 2}
PLANTED = ("ID1", "ID2", "ID4", "ID5", "ID6")
FEATURE_ORDER = ("G0", "G1", "G92", "M82", "M84", "M104", "M105", "M106", "M107", "M140", "total_lines")


def _segments(angle: float, rng: random.Random) -> int:
    total = 0
    for layer in range(LAYERS):
        a = math.radians(angle - DIRECTIONS[layer % len(DIRECTIONS)])
        total += math.floor(SEGMENT_SCALE * (abs(math.cos(a)) + abs(math.sin(a))) + rng.random())
    return total


def sweep_rows(seed: int, count: int, step: float, per_strategy: int) -> dict:
    """Rows of one sweep plus its planted victims, as JSON-ready data.

    Returns ``{"rows": [...], "victims": [{"path", "strategy"}...]}``; each row
    carries the feature-vector fields that ``features.build_matrix`` reads.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        angle = i * step
        s = _segments(angle, rng)
        g0, g1 = G0_BASE + s, G1_BASE + s
        e_tokens = g1 + 1  # every G1 plus the G92 E reset
        rows.append({
            "path": f"sweep_{i:04d}.gcode",
            "G0": g0,
            "G1": g1,
            "total_lines": g0 + g1 + OTHER_LINES,
            "histogram": {5: e_tokens},
            "angle": angle,
        })
    victims = []
    picked = rng.sample(range(count), per_strategy * len(PLANTED))
    for n, index in enumerate(picked):
        sid = PLANTED[n // per_strategy]
        row = rows[index]
        k = round((row["G1"] - 4) / 4)
        if sid == "ID1":
            row["G1"] -= k
            row["G0"] += k
        elif sid == "ID2":
            row["G0"] += k
            row["total_lines"] += k
        elif sid == "ID6":
            row["G1"] -= k
            row["total_lines"] -= k
        else:
            off = {d: 0 for d in (1, 2, 3, 4)}
            for _ in range(k):
                off[rng.randint(1, 4)] += 1
            row["histogram"] = {5: row["histogram"][5] - k, **{d: m for d, m in off.items() if m}}
        victims.append({"path": row["path"], "strategy": sid})
    return {"rows": rows, "victims": sorted(victims, key=lambda v: v["path"])}


def counts_of(row: dict) -> tuple[int, ...]:
    return tuple(
        row[name] if name in ("G0", "G1", "total_lines") else CONSTANT_CODES[name]
        for name in FEATURE_ORDER
    )


def feature_vectors(data: dict):
    """``FeatureVector`` objects for the rows (imports the program)."""
    from gcodeguard.features import FeatureVector

    # Side statistics the detectors do not read: the bracket's reach from
    # the bed centre at any angle (half its diagonal) plus the skirt margin.
    half = 42.43 + 3.0
    vectors = []
    for row in data["rows"]:
        vectors.append(FeatureVector(
            path=row["path"],
            counts=counts_of(row),
            layer_count=LAYERS,
            bounds=(110.0 - half, 110.0 + half, 110.0 - half, 110.0 + half, 0.2, 6.0),
            total_extruded=0.28 * row["G1"],
            e_decimal_histogram=tuple(sorted((int(d), int(m)) for d, m in row["histogram"].items())),
        ))
    return vectors


def save(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, sort_keys=True))


def load(path: Path) -> dict:
    data = json.loads(path.read_text())
    for row in data["rows"]:
        row["histogram"] = {int(d): m for d, m in row["histogram"].items()}
    return data


def matrix_of(data: dict) -> np.ndarray:
    return np.array([counts_of(row) for row in data["rows"]], dtype=np.float64)
