"""Invariants of the package source: its checks are explicit raises, so
``python -O`` keeps them, and it calls a general solver only where listed."""

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


# Every call of a general solver in the package, as (file, enclosing
# function, callee), with the reason no direct answer replaces it.  Where
# the mathematics gives one (Yoneda parameters, RREF pivot coordinates,
# ranks), it is used instead, so a new call needs an entry here.
GENERAL_SOLVES = {
    ("linalg.py", "inverse", "solve_matrix"):
        "the inverse itself: M X = I, checked by multiplying back",
    ("modules.py", "ModuleMap.inverse_map", "inverse"):
        "the inverse blocks are the answer",
    ("modules.py", "NaturalitySolver.__init__", "solve_matrix"):
        "a section of each cover block, whose columns are module values",
    ("modules.py", "NaturalitySolver.solve_with_conditions", "solve"):
        "an extension problem: the constraint rows with inhomogeneous conditions",
    ("theorems.py", "end_ring", "solve_matrix"):
        "the radical lift that seeds the Newton iteration",
    ("theorems.py", "_min_poly_in_algebra", "solve"):
        "powers of an algebra element, which are not an RREF basis",
    ("symrep.py", "specht", "solve_matrix"):
        "the swap action on the polytabloid basis, which is not in RREF",
    ("symrep.py", "rational_character_table", "solve_matrix"):
        "class-sum actions on eigenspace bases, which are not in RREF",
}


def _general_solve_calls(path):
    """(file, enclosing function, callee) of each solve, solve_matrix and
    inverse call in one source file."""
    found = []

    def visit(node, scope, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, in_class=True)
            elif isinstance(child, ast.FunctionDef):
                # a method is Class.method; a nested helper counts for its outer function
                visit(child, f"{scope}.{child.name}" if in_class else scope or child.name)
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("solve", "solve_matrix", "inverse"):
                        found.append((path.name, scope, name))
                visit(child, scope, in_class)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_general_solves_are_on_the_allow_list():
    found = [c for path in sorted(SOURCE.glob("*.py")) for c in _general_solve_calls(path)]
    assert len(found) == len(set(found)), "a function calls one solver twice"
    assert sorted(found) == sorted(GENERAL_SOLVES)
