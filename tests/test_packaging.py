"""Packaging: the package imports only the standard library and its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements):
    """The distribution names of requirement strings, as import names."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_package_imports_only_the_standard_library_and_its_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    imported = {}
    for path in sorted((ROOT / "src" / "gausspoisson").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    outside = {name: where for name, where in imported.items() if name not in sys.stdlib_module_names | runtime}
    assert outside == {}
    # scipy is a test oracle only: the transforms and incomplete gammas are numpy's and closed forms
    assert "scipy" not in runtime and "scipy" in _names(project["optional-dependencies"]["dev"])
