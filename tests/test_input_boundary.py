"""Input errors cross one boundary: a verb lets a ValueError out, and
`cli.main` alone turns it into exit 2.  The except clauses below are the
only ones `cli.py` may hold, and no verb reads a key of a decoded file:
the `jsonio` decoders are the one reader of each format."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "subposetlab" / "cli.py"

# (function, exceptions caught) -> why it catches them
HANDLERS = {
    ("main", "ValueError"): "an input error is exit 2",
    ("main", "BudgetExceeded"): "a spent budget is exit 3",
    ("_load_json", "(OSError, UnicodeDecodeError)"):
        "a file that cannot be read, as a ValueError naming its path",
    ("_load_json", "(ValueError, RecursionError)"):
        "a file that cannot be parsed, as a ValueError naming its path",
    ("_cmd_verify_rep", "RepresentationSizeError"):
        "wrong sizes are verify-rep's negative result, exit 1",
}


def functions(tree):
    """(name, node) of every function, nested ones included."""
    return [
        (node.name, node) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def except_clauses(tree) -> list[tuple[str, str]]:
    """(innermost enclosing function, caught type as written) of every
    except clause; "" for a bare except or one outside any function."""
    owner = {}
    for name, func in functions(tree):
        for node in ast.walk(func):
            owner[node] = name  # ast.walk is outer first: the innermost wins
    return [
        (owner.get(node, ""), "" if node.type is None else ast.unparse(node.type))
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
    ]


def key_reads(tree) -> list[str]:
    """Every subscript read with a string key and every .get call."""
    return [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    ]


def test_cli_catches_only_the_named_exceptions():
    tree = ast.parse(CLI.read_text())
    assert sorted(except_clauses(tree)) == sorted(HANDLERS)


def test_cli_reads_no_key_of_a_decoded_value():
    assert key_reads(ast.parse(CLI.read_text())) == []


def test_the_scans_see_what_they_forbid():
    tree = ast.parse(
        "def f(obj):\n"
        "    try:\n"
        "        return obj['n'] + obj.get('l', 0)\n"
        "    except (TypeError, KeyError):\n"
        "        out = {}\n"
        "        out['n'] = 1\n"
        "    except:\n"
        "        pass\n"
    )
    assert except_clauses(tree) == [("f", "(TypeError, KeyError)"), ("f", "")]
    assert key_reads(tree) == ["obj['n']", "obj.get('l', 0)"]
