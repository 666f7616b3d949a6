"""Every declared runtime dependency is importable where the tests run."""

import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_are_importable():
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).replace("-", "_")
        assert importlib.util.find_spec(name) is not None, f"{dep} is declared but not importable"
