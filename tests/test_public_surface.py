"""Every public name of the package has a user: the pipeline, the CLI, the
acceptance gate, the benchmark or the scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "malakit"
USERS = [ROOT / "tests" / "test_acceptance.py",
         *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]


def _identifiers(tree: ast.AST) -> set[str]:
    """Names, attributes, imported names and identifier-like strings (the
    benchmark's tracer names the functions it wraps by string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _implied(node: ast.AST) -> set[str]:
    """Names in a definition's return annotation, its field annotations and
    its ``raise`` statements."""
    parts = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
        parts.append(node.returns)
    if isinstance(node, ast.ClassDef):
        parts += [stmt.annotation for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    parts += [n.exc for n in ast.walk(node) if isinstance(n, ast.Raise) and n.exc is not None]
    return {n.id for part in parts for n in ast.walk(part) if isinstance(n, ast.Name)}


def unused_public_names(package: Path, users: list[Path]) -> list[str]:
    """``module.name`` for each ``__all__`` name of ``package`` that nothing
    uses: no reference from another module of the package (``__init__``
    re-exports do not count) or from ``users``, and not implied by a used
    name's return annotation, field annotations or raised exceptions."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    outside = set().union(*(_identifiers(ast.parse(p.read_text())) for p in users))
    public, definitions = {}, {}
    for module, tree in trees.items():
        for name in _exported(tree):
            public[name] = module
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[(module, node.name)] = node
    inside = {module: _identifiers(tree) for module, tree in trees.items()}
    used = {name for name, module in public.items()
            if name in outside or any(name in ids for m, ids in inside.items() if m != module)}
    pending = list(used)
    while pending:
        name = pending.pop()
        node = definitions.get((public[name], name))
        for implied in _implied(node) if node is not None else ():
            if implied in public and implied not in used:
                used.add(implied)
                pending.append(implied)
    return sorted(f"{public[name]}.{name}" for name in public if name not in used)


def test_every_public_name_has_a_user():
    assert unused_public_names(PACKAGE, USERS) == []


def test_checker_flags_unused_names(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import lonely, Result, Failed, Field, helper\n")
    (package / "a.py").write_text(
        "__all__ = ['helper', 'lonely', 'Result', 'Failed', 'Field', 'Orphan']\n"
        "class Failed(Exception): pass\n"
        "class Field: pass\n"
        "class Orphan: pass\n"
        "class Result:\n    x: Field | None\n"
        "def helper() -> Result:\n    raise Failed()\n"
        "def lonely(): pass\n")
    (package / "b.py").write_text("from .a import helper\n")
    user = tmp_path / "user.py"
    user.write_text("import pkg\nSPANS = ('a', 'no such name')\n")
    assert unused_public_names(package, [user]) == ["a.Orphan", "a.lonely"]
    user.write_text("SPANS = (('a', 'lonely'),)\n")
    assert unused_public_names(package, [user]) == ["a.Orphan"]
