"""The package data that a wheel ships: an editable install reads the source
tree, so a stale glob in pyproject.toml would pass every other test."""
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gesturepipe"


def test_every_data_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    globs = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]
    files = [p.relative_to(PACKAGE).as_posix() for p in (PACKAGE / "data").rglob("*") if p.is_file()]
    assert files
    assert [f for f in files if not any(fnmatch(f, glob) for glob in globs["gesturepipe"])] == []
