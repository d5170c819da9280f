"""Package invariants are explicit raises, so ``python -O`` keeps them."""

import ast
from pathlib import Path

import fimlab

SOURCE = Path(fimlab.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
