"""No module in the package imports a name it does not use.  The package
root is exempt: its imports are the re-exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subposetlab"


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(bound name, line) for each name an import binds that no Name node
    of the module reads; `from __future__` imports do not count."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((name, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_scan_flags_unread_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import comb, factorial\n"
        "from .lattice import bits as lattice_bits\n"
        "def f(x: factorial) -> int:\n"
        "    return os.path.join(x, comb(2, 1))\n"
    )
    assert unused_imports(source) == [("system", 3), ("lattice_bits", 5)]


def test_no_module_in_src_imports_an_unused_name():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = {p.name: unused_imports(p.read_text()) for p in files}
    assert {name: names for name, names in found.items() if names} == {}
