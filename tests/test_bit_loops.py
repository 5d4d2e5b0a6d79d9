"""Subset masks are read back through one iterator, `lattice.bits` (or
`lattice.elements_of_mask` for 1-based elements).  Only the search kernels
keep an inline low-bit loop: they run it per node, per candidate or per
augmenting-path step, where a call of `bits` costs more than the loop
(771 ns against 581 ns per 24-bit row with 6 bits set, best of 7,
Python 3.11.7)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subposetlab"

# (module file, qualified function name) of every function that may hold
# an `x & -x` expression
INLINE = {
    ("lattice.py", "bits"),
    ("lattice.py", "elements_of_mask"),
    ("extremal.py", "_Engine._search"),
    ("posets.py", "_embeddings"),
    ("posets.py", "_has_distinct_hosts"),
}


def is_low_bit(node: ast.AST) -> bool:
    """Whether node is `x & -x` or `-x & x` for one expression x."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(
        isinstance(neg, ast.UnaryOp)
        and isinstance(neg.op, ast.USub)
        and ast.dump(x) == ast.dump(neg.operand)
        for x, neg in ((node.left, node.right), (node.right, node.left))
    )


def low_bit_uses(source: str) -> list[tuple[str, int]]:
    """(qualified name of the innermost enclosing function or class, line)
    for each `x & -x` expression, in line order; "" at module level."""
    found = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif is_low_bit(node):
            found.append((scope, node.lineno))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return sorted(found, key=lambda f: f[1])


def test_scan_flags_low_bit_expressions_only():
    source = (
        "top = m & -m\n"
        "def f(x, y):\n"
        "    low = x & -x\n"
        "    return x & -y, x & y, -(x | y) & (x | y)\n"
        "class C:\n"
        "    def g(self, rows):\n"
        "        def h():\n"
        "            return (rows[0] & -rows[0]).bit_length()\n"
        "        return h\n"
    )
    assert low_bit_uses(source) == [("", 1), ("f", 3), ("f", 4), ("C.g.h", 8)]


def test_low_bit_loops_only_in_the_listed_functions():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {
        (p.name, scope) for p in files for scope, _ in low_bit_uses(p.read_text())
    }
    assert found == INLINE
