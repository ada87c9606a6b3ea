"""Sabotage injection and detection for additive-manufacturing toolpaths.

The package covers one experiment end to end: generate a corpus of related
synthetic print jobs, sabotage a chosen subset with one of six strategies,
extract per-file command statistics, flag suspicious files with statistical
and clustering detectors, and score the flags against ground truth.
"""

from .gcode import (
    GcodeDocument,
    MalformedFileError,
    parse_document,
    serialize,
    simulate,
)
from .synthgen import (
    DatasetManifest,
    DegenerateGeometryError,
    SpecimenSpec,
    build_specimen,
    generate_dataset,
    preset_spec,
)
from .mutate import (
    STRATEGY_IDS,
    CompromisePlan,
    EmptyRangeError,
    MutationLog,
    RangeMode,
    Strategy,
    apply_strategy,
    plan_compromise,
    select_range,
)
from .features import FEATURE_NAMES, FeatureMatrix, FeatureVector, build_matrix, extract
from .detectors import DETECTOR_NAMES, FlagSet, run_detector
from .evaluate import ConfusionMatrix, confusion, emit_report

__version__ = "0.1.0"

__all__ = [
    "GcodeDocument",
    "MalformedFileError",
    "parse_document",
    "serialize",
    "simulate",
    "DatasetManifest",
    "DegenerateGeometryError",
    "SpecimenSpec",
    "build_specimen",
    "generate_dataset",
    "preset_spec",
    "STRATEGY_IDS",
    "CompromisePlan",
    "EmptyRangeError",
    "MutationLog",
    "RangeMode",
    "Strategy",
    "apply_strategy",
    "plan_compromise",
    "select_range",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "FeatureVector",
    "build_matrix",
    "extract",
    "DETECTOR_NAMES",
    "FlagSet",
    "run_detector",
    "ConfusionMatrix",
    "confusion",
    "emit_report",
    "__version__",
]
