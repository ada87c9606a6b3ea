"""The package's one JSON format, and the one reader of its records.

Every JSON file the package writes (manifests, ground truth, edit logs,
flag sets, reports, run metadata) and the ``run-all --dry-run`` plan go
through ``dumps``: keys sorted, two-space indent, one trailing newline. A
record (a dataclass) is written as ``dataclasses.asdict`` of itself with
enums by value, so its JSON keys are its field names.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


def _plain(obj: object) -> object:
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj: object) -> str:
    """``obj`` as JSON text: keys sorted, two-space indent, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(dumps(obj))


def read_json(path: str | Path) -> object:
    """The JSON value in ``path``; a file that is not JSON raises one
    ``ValueError`` that names the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_record(path: str | Path, build: Callable[[dict], T]) -> T:
    """``build`` applied to the JSON object in ``path``.

    A file that is not JSON, holds no JSON object, or that ``build`` cannot
    read (a missing key, a value of the wrong type) raises one
    ``ValueError`` that names the file.
    """
    data = read_json(path)
    try:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
