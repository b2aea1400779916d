"""The package's runtime dependencies: the standard library and numpy."""

import ast
import sys
from pathlib import Path

import bulkrobust

PACKAGE = Path(bulkrobust.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bulkrobust"}


def imported_roots(path):
    """The top-level names of the absolute imports in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: imported_roots(path) - ALLOWED for path in modules}
    assert {name: roots for name, roots in found.items() if roots} == {}
    assert "numpy" in set().union(*map(imported_roots, modules))
