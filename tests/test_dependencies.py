"""The package imports no third-party module that pyproject.toml does not declare."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "malakit"


def third_party_imports(package: Path) -> dict[str, list[str]]:
    """Top-level names of every absolute import outside the standard library
    and the package itself, at module level or inside a function, each with
    the ``file:line`` places that import it."""
    found: dict[str, list[str]] = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != package.name:
                    found.setdefault(top, []).append(f"{path.name}:{node.lineno}")
    return found


def runtime_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_imports_match_the_declared_runtime_dependencies():
    assert set(third_party_imports(PACKAGE)) == runtime_dependencies() == {"numpy"}


def test_checker_sees_imports_inside_functions(tmp_path):
    package = tmp_path / "malakit"
    package.mkdir()
    (package / "a.py").write_text("import json\nimport numpy as np\nfrom . import b\n"
                                  "def f():\n    from scipy.special import expit\n    import malakit.b\n")
    assert third_party_imports(package) == {"numpy": ["a.py:2"], "scipy": ["a.py:5"]}
