"""Runtime invariants raise errors: no module of the package uses ``assert``,
which ``python -O`` strips."""

import ast
from pathlib import Path

import otoc_thermalize


def test_package_has_no_assert_statements():
    root = Path(otoc_thermalize.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
