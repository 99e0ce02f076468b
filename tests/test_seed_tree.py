"""Every stream of the package is a keyed node of its seed (see ``malakit.rng``)."""

import ast
from pathlib import Path

from malakit.harness import build_target, parse_spec, resolve_etas
from malakit.regularity import build_regularity_report

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "malakit"


def _seed_valued(node: ast.AST) -> bool:
    """A name or attribute that says ``seed``, or a call such as ``subseed(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return "seed" in name.lower()


def seed_arithmetic(package: Path) -> list[str]:
    """Arithmetic on a seed-named value, or an augmented assignment to one, one line each."""
    found = []
    for path in sorted(package.glob("*.py")):
        lines = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.Not):
                operands = [node.operand]
            elif isinstance(node, ast.AugAssign):
                operands = [node.target]
            else:
                continue
            if any(_seed_valued(op) for op in operands):
                lines.add(node.lineno)
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    return found


def test_no_seed_arithmetic():
    assert seed_arithmetic(PACKAGE) == []


def test_checker_flags_every_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "rng = chain_rng(seed ^ 0x5EED)\n"
        "pilot = subseed(spec.seed, idx) ^ 0xACC\n"
        "cell_seed += 1\n"
        "x = -spec.data_seed\n"
        "y = chain_rng(spec.seed, 10**6 + 1)\n"
        "z = f'seed = {seed}', not seed, count + 1\n")
    (tmp_path / "b.py").write_text("data = sample(r, (seed + 10**6) ^ 0x5EED)\n")
    assert seed_arithmetic(tmp_path) == ["a.py:1", "a.py:2", "a.py:3", "a.py:4", "b.py:1"]


def test_theorem1_gradient_bound_is_the_regularity_cloud():
    # At an earlier version theorem1 drew its cloud from the root of the
    # master seed, which is also the dataset's stream when data_seed == seed:
    # its 16 points were the data's first 16 features (M = 444.27 against
    # the report's 464.91 here).
    spec = parse_spec("malakit-spec v1\nname = logistic\n\n"
                      "[target]\nkind = logistic\nd = 10\nr = 5000\nq0 = 0.7\ndata_seed = 11\nprior = 1.0\n\n"
                      "[sampler]\nkind = rwm\n\n[schedule]\nkind = theorem1\n\n"
                      "[run]\niterations = 10\nreplicas = 1\nseed = 11\n")
    built = build_target(spec)
    _, notes = resolve_etas(spec, built)
    report = build_regularity_report(built.target, built.dataset, 8, 8, spec.seed)
    assert notes["gradient_bound"] == report.gradient_bound_estimate
