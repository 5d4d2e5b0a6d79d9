"""A budget bounds all work done under it: every call of a package function
or class whose signature takes `budget` passes one on, as the name
`budget`, `_budget_arg(args)` or a `Budget(...)` call.  The calls below
are the only ones that may leave it out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subposetlab"

# (calling function, callee) -> why the call runs without the budget
UNBUDGETED = {
    ("search_representation", "verify_representation"):
        "the final re-check runs unbudgeted, so a found family is always returned",
    ("turan_oracle", "contains_complete_kpartite"):
        "the witness re-check",
}


def budget_slots(trees) -> dict[str, int | None]:
    """Callee name -> position of `budget` among the positional arguments
    of a call, None if it is keyword-only, for every function that takes
    one.  A class's `__init__` is keyed by the class name, so
    `super().__init__` is no callee."""
    slots = {}
    for tree in trees.values():
        stack = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            if isinstance(node, ast.ClassDef):
                cls = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if cls is not None and positional[:1] == ["self"]:
                    positional = positional[1:]
                name = cls if node.name == "__init__" else node.name
                if "budget" in positional:
                    slots[name] = positional.index("budget")
                elif "budget" in [p.arg for p in a.kwonlyargs]:
                    slots[name] = None
                cls = None
            stack.extend((child, cls) for child in ast.iter_child_nodes(node))
    return slots


def passes_budget(arg: ast.expr | None) -> bool:
    if isinstance(arg, ast.Name):
        return arg.id == "budget"
    return (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id in ("_budget_arg", "Budget")
    )


def callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unbudgeted_calls(trees) -> list[tuple[str, str, str, int]]:
    """(module, calling function, callee, line) of every call of a
    budget-taking function that does not pass a budget."""
    slots = budget_slots(trees)
    found = []
    for module, tree in trees.items():
        stack = [(tree, "")]
        while stack:
            node, caller = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                caller = node.name
            elif isinstance(node, ast.Call) and callee_name(node) in slots:
                pos = slots[callee_name(node)]
                arg = next((k.value for k in node.keywords if k.arg == "budget"), None)
                if arg is None and pos is not None and pos < len(node.args):
                    arg = node.args[pos]
                if not passes_budget(arg):
                    found.append((module, caller, callee_name(node), node.lineno))
            stack.extend((child, caller) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_scan_flags_calls_that_drop_the_budget():
    source = (
        "class Engine:\n"
        "    def __init__(self, copies, budget):\n"
        "        super().__init__()\n"
        "def search(host, budget=None, *, depth=0):\n"
        "    Engine((), budget)\n"
        "    return Engine(host, None)\n"
        "def count(host, *, budget=None):\n"
        "    return search(host)\n"
        "def cmd(args):\n"
        "    search(1, _budget_arg(args))\n"
        "    count(1, budget=Budget(5))\n"
        "    count(1)\n"
        "    return search(1, budget=budget) + search(1, limit)\n"
    )
    trees = {"m.py": ast.parse(source)}
    assert budget_slots(trees) == {"Engine": 1, "search": 1, "count": None}
    assert unbudgeted_calls(trees) == [
        ("m.py", "cmd", "count", 12),
        ("m.py", "cmd", "search", 13),
        ("m.py", "count", "search", 8),
        ("m.py", "search", "Engine", 6),
    ]


def test_every_budgeted_call_passes_the_budget_on():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert budget_slots(trees)
    calls = unbudgeted_calls(trees)
    assert {(caller, callee) for _, caller, callee, _ in calls} == set(UNBUDGETED), calls
