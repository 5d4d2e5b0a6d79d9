"""No function in the package calls itself: every search keeps its state on
an explicit stack, so input depth never meets the interpreter's recursion
limit."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subposetlab"


def self_calls(source: str) -> list[tuple[str, int]]:
    """(function name, line) for each call of a function's own name as a
    bare Name, inside it or a function nested in it.  Attribute calls such
    as super().f() or json.f() do not count."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == fn.name
            ):
                found.append((fn.name, node.lineno))
    return found


def test_scan_flags_bare_self_calls_only():
    source = (
        "def f(n):\n"
        "    return f(n - 1) if n else 0\n"
        "class C(B):\n"
        "    def g(self):\n"
        "        super().g()\n"
        "        json.g()\n"
        "        def h():\n"
        "            yield from h()\n"
        "        return h\n"
    )
    assert self_calls(source) == [("f", 2), ("h", 8)]


def test_no_function_in_src_calls_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: self_calls(p.read_text()) for p in files}
    assert {name: calls for name, calls in found.items() if calls} == {}
