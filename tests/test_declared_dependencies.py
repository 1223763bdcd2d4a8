"""Every third-party module that src/scootertrips imports is a declared
runtime dependency in pyproject.toml (import names equal distribution names
for each of them)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO = Path(__file__).resolve().parent.parent


def imported_packages(src: Path) -> set[str]:
    """The top-level package of every absolute import in the .py files under src."""
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_declared():
    third_party = imported_packages(REPO / "src" / "scootertrips") - set(sys.stdlib_module_names) - {"scootertrips"}
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", dep).group().lower() for dep in project["dependencies"]}
    assert "numpy" in third_party  # the walk found the imports
    assert sorted(third_party - declared) == []
