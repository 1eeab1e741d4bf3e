"""Source-level rules for the qsprep package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qsprep"


def test_no_assert_statements():
    """Invariants raise typed errors: `assert` statements vanish under `python -O`."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_environment_knobs():
    """Every setting is a flag or an argument: no module reads the process environment."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "environb", "getenv", "getenvb", "*"}:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []
