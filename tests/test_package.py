"""The package's public surface: exports and the README's library example."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gcodeguard

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(gcodeguard.__path__) if not name.startswith("__")
)


@pytest.mark.parametrize("module_name", ["gcodeguard", *(f"gcodeguard.{m}" for m in SUBMODULES)])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_readme_library_use_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    (snippet,) = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0], re.S | re.M)
    exec(compile(snippet, f"{README}:Library use", "exec"), {"__name__": "readme_snippet"})
