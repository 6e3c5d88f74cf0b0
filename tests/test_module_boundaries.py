"""Import rules between the modules of the condinv package.

A private name is a module's own business: once a second module imports
it, the two can no longer change independently. So no module imports
another module's private (_-prefixed) names.

A name that one module imports from another and never reads is dead,
unless perfbench's tracer wraps it there (BOUNDARIES): the tracer times a
call through the binding its caller resolves, so such a binding may stay
only while the table names it. The package's __init__ re-exports what it
imports and is exempt.
"""

import ast
import os

from test_traced_bindings import BOUNDARIES

PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "condinv"
)


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _package_imports(tree: ast.Module):
    """Each `from <condinv module> import ...` node in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("condinv")
        ):
            yield node


def private_imports(path: str) -> list[str]:
    """Each `from <condinv module> import _name` in the file at path."""
    found = []
    for node in _package_imports(_tree(path)):
        module = "." * node.level + (node.module or "")
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def unread_imports(path: str) -> list[str]:
    """Each name the file at path imports from a condinv module and never reads."""
    tree = _tree(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(
        f"{(node.module or '').rsplit('.', 1)[-1]}.{a.name}"
        for node in _package_imports(tree)
        for a in node.names
        if (a.asname or a.name) not in read
    )


def _modules() -> list[str]:
    modules = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
    assert "solver.py" in modules
    return modules


def test_no_module_imports_a_private_name():
    leaks = {name: private_imports(os.path.join(PACKAGE_DIR, name)) for name in _modules()}
    assert {name: found for name, found in leaks.items() if found} == {}


def test_unread_imports_are_traced_bindings():
    untraced = {
        name: [
            span for span in unread_imports(os.path.join(PACKAGE_DIR, name))
            if name[: -len(".py")] not in BOUNDARIES.get(span, ((), None))[0]
        ]
        for name in _modules() if name != "__init__.py"
    }
    assert {name: found for name, found in untraced.items() if found} == {}


def test_unread_imports_are_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from .kernel import gram, KernelSpec as Spec\n"
        "from condinv.solver import solve\n"
        "import numpy as np\n"
        "def f(x: Spec):\n"
        "    return np.exp(x)\n"
    )
    assert unread_imports(str(path)) == ["kernel.gram", "solver.solve"]
