"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "malakit"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def cross_module_private_uses(package: Path) -> list[str]:
    """``from .mod import _name`` and ``mod._name`` uses, one line each."""
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_names = set()  # local names bound to another package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                inside = node.level > 0 or (node.module or "").split(".")[0] == "malakit"
                if not inside:
                    continue
                source = (node.module or "").split(".")[-1]
                for alias in node.names:
                    if node.module in (None, "malakit") and alias.name in modules:
                        module_names.add(alias.asname or alias.name)
                    elif _private(alias.name) and source != path.stem:
                        found.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "malakit" and len(parts) > 1 and alias.asname:
                        module_names.add(alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in module_names):
                found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_cross_module_private_names():
    assert cross_module_private_uses(PACKAGE) == []


def test_checker_flags_both_forms(tmp_path):
    (tmp_path / "a.py").write_text("def _helper():\n    return 1\n")
    (tmp_path / "b.py").write_text("from .a import _helper\nfrom . import a\nx = a._helper()\n")
    (tmp_path / "c.py").write_text("from .c import _own\nfrom . import __version__\n")
    assert cross_module_private_uses(tmp_path) == ["b.py:1 imports a._helper", "b.py:3 uses a._helper"]
