"""Every public function and class of the package is named, and every
public method of its classes is read as an attribute, somewhere outside
its own definition: in a module of the package, in the benchmark under
`bench/`, or in the acceptance criteria.  The package root does not count,
since its imports are the re-exports, and neither do the unit tests, which
would keep alive an export that only they call.  The names below are the
only ones that may go unread."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subposetlab"

# public function, class or Class.method -> why nothing outside the tests reads it
ALLOWED = {
    "is_weak_embedding": "the oracle that tests check every embedding against",
    "Poset.comparability_degree": "the reference for the `_pattern_order` tests",
}


def reads(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Every name read in tree outside the subtree skip: Name nodes,
    attribute names, names a `from` import binds, and string constants,
    since the benchmark wraps functions by name."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, name, node) of each public top-level function and
    class and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                        yield f"{node.name}.{method.name}", method.name, method


def unused_exports(
    package: dict[str, ast.Module], readers: list[ast.AST]
) -> list[tuple[str, str]]:
    """(module, qualified name) of each public definition in the package
    modules that neither another part of the package nor a reader reads."""
    whole = {module: reads(tree, None) for module, tree in package.items()}
    outside = set().union(*(reads(tree, None) for tree in readers))
    found = []
    for module, tree in package.items():
        elsewhere = outside.union(*(r for m, r in whole.items() if m != module))
        for qualname, name, node in public_definitions(tree):
            if name not in elsewhere and name not in reads(tree, node):
                found.append((module, qualname))
    return sorted(found)


def test_scan_flags_definitions_nothing_else_reads():
    package = {
        "a.py": ast.parse(
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.area()\n"
            "    def sides(self):\n"
            "        return 4\n"
            "    def _cache(self):\n"
            "        return 0\n"
            "def unread(x):\n"
            "    return unread(x - 1)\n"
            "def helper():\n"
            "    return Shape().sides()\n"
            "def _private():\n"
            "    return 1\n"
            "def bench_only():\n"
            "    return 2\n"
        ),
        "b.py": ast.parse("from .a import helper\n"),
    }
    readers = [ast.parse("WRAPPED = (('a', 'bench_only'),)\n")]
    assert unused_exports(package, readers) == [("a.py", "Shape.area"), ("a.py", "unread")]


def test_every_public_name_is_read_outside_the_unit_tests():
    package = {
        p.name: ast.parse(p.read_text())
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    readers = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").rglob("*.py"))]
    readers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert len(package) > 1 and len(readers) > 1
    found = unused_exports(package, readers)
    assert {name for _, name in found} == set(ALLOWED), found
