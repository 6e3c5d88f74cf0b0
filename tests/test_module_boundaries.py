"""No condinv module imports another module's private (_-prefixed) names.

A private name is a module's own business: once a second module imports
it, the two can no longer change independently. This check parses every
module of the package and fails on any such import.
"""

import ast
import os

PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "condinv"
)


def private_imports(path: str) -> list[str]:
    """Each `from <condinv module> import _name` in the file at path."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("condinv"):
            continue  # outside the package
        module = "." * node.level + (node.module or "")
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
    assert "solver.py" in modules
    leaks = {name: private_imports(os.path.join(PACKAGE_DIR, name)) for name in modules}
    assert {name: found for name, found in leaks.items() if found} == {}
