"""Per-file feature vectors for whole-corpus anomaly detection.

The canonical vector counts ten command codes plus the total line count:

    G0 G1 G92 M82 M84 M104 M105 M106 M107 M140 total_lines

Side statistics that are not part of the vector but feed the statistical
detectors ride along: layer count, coordinate bounds, total extrusion, and
the histogram of textual decimal places across E tokens. A file's E-decimal
anomaly count is defined against the corpus-wide modal decimal count, so it
is computed when vectors are assembled into a matrix, not per file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .gcode import simulate

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "FeatureMatrix",
    "extract",
    "build_matrix",
    "standardize",
    "write_features_csv",
]

FEATURE_NAMES = (
    "G0",
    "G1",
    "G92",
    "M82",
    "M84",
    "M104",
    "M105",
    "M106",
    "M107",
    "M140",
    "total_lines",
)

_BOUND_AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class FeatureVector:
    """Counts and side statistics for one document."""

    path: str
    counts: tuple[int, ...]
    layer_count: int
    bounds: tuple[float, float, float, float, float, float]
    total_extruded: float
    e_decimal_histogram: tuple[tuple[int, int], ...]


def extract(source: Iterable[tuple], path: str | None = None) -> FeatureVector:
    """One ``simulate`` pass reduced to the canonical counts plus extras.

    ``source`` is anything ``simulate`` takes: a document or the records of
    ``gcode.scan``. ``path`` defaults to a document's ``source_path``.
    """
    if path is None:
        path = getattr(source, "source_path", None)
    summary = simulate(source)
    counts = tuple(
        summary.total_lines if name == "total_lines"
        else summary.command_counts.get(name, 0)
        for name in FEATURE_NAMES
    )
    bounds = []
    for axis in _BOUND_AXES:
        lo, hi = summary.bounds.get(axis, (0.0, 0.0))
        bounds.extend((lo, hi))
    return FeatureVector(
        path=path or "",
        counts=counts,
        layer_count=summary.layer_count,
        bounds=tuple(bounds),
        total_extruded=summary.total_extruded,
        e_decimal_histogram=tuple(sorted(summary.e_decimal_histogram.items())),
    )


@dataclass(frozen=True)
class FeatureMatrix:
    """Vectors for a whole corpus, row order fixed by ``paths``.

    ``e_decimal_mode`` is the most common decimal count across every E token
    in the corpus (ties resolved toward fewer decimals);
    ``e_decimal_anomalies[i]`` counts file i's E tokens that deviate from it.
    """

    paths: tuple[str, ...]
    matrix: np.ndarray
    e_decimal_mode: int
    e_decimal_anomalies: np.ndarray
    vectors: tuple[FeatureVector, ...]

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, FEATURE_NAMES.index(name)]


def build_matrix(vectors: list[FeatureVector] | tuple[FeatureVector, ...]) -> FeatureMatrix:
    if not vectors:
        raise ValueError("no feature vectors to assemble")
    totals: dict[int, int] = {}
    for vec in vectors:
        for dec, n in vec.e_decimal_histogram:
            totals[dec] = totals.get(dec, 0) + n
    if totals:
        mode = max(totals.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    else:
        mode = 0
    anomalies = np.array(
        [
            sum(n for dec, n in vec.e_decimal_histogram if dec != mode)
            for vec in vectors
        ],
        dtype=np.int64,
    )
    matrix = np.array([vec.counts for vec in vectors], dtype=np.float64)
    return FeatureMatrix(
        paths=tuple(vec.path for vec in vectors),
        matrix=matrix,
        e_decimal_mode=mode,
        e_decimal_anomalies=anomalies,
        vectors=tuple(vectors),
    )


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Column-wise z-scores with population std; constant columns become 0."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    z = (matrix - mean) / std
    # The rounded mean of a constant column can miss its value by one ulp,
    # which would score every row +-1 instead of 0.
    z[:, (matrix == matrix[:1]).all(axis=0)] = 0.0
    return z


def write_features_csv(fm: FeatureMatrix, path: str | Path) -> None:
    """Flat per-file table: canonical counts plus the side statistics."""
    header = (
        ["path"]
        + [name.lower() for name in FEATURE_NAMES]
        + ["layer_count", "x_min", "x_max", "y_min", "y_max", "z_min", "z_max",
           "total_extruded", "e_decimal_mode", "e_decimal_anomalies"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, vec in enumerate(fm.vectors):
            row = (
                [vec.path]
                + [int(c) for c in vec.counts]
                + [vec.layer_count]
                + [repr(b) for b in vec.bounds]
                + [repr(vec.total_extruded), fm.e_decimal_mode,
                   int(fm.e_decimal_anomalies[i])]
            )
            writer.writerow(row)
