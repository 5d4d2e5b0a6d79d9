"""The generator-spec grammar: one decoder behind make_poset, gen-rep --kind
and turan --sizes, and the doc tables that list its kinds."""

import pathlib
import re

import pytest

from subposetlab import jsonio
from subposetlab.cli import _GENERATORS, main
from subposetlab.posets import (
    POSET_KINDS,
    antichain,
    butterfly,
    chain,
    complete_two_level,
    crown,
    diamond,
    fork,
    harp,
    make_poset,
)
from subposetlab.representations import rep_crown14, rep_even_cycle, rep_tight_cycle
from conftest import BUDGETED_VERBS, parser_flags

FORMATS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"


def run(capsys, *argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("chain:3", chain(3)),
        ("CHAIN:3", chain(3)),
        (" chain : 3 ", chain(3)),
        ("chain:+3", chain(3)),
        ("antichain:2", antichain(2)),
        ("crown:14", crown(14)),
        ("Crown:6", crown(6)),
        ("butterfly", butterfly()),
        ("butterfly:", butterfly()),
        ("fork:3", fork(3)),
        ("diamond:2", diamond(2)),
        ("harp:5,4,3", harp([5, 4, 3])),
        ("harp:5,,4,", harp([5, 4])),
        ("complete_two_level:2,2", complete_two_level(2, 2)),
        ("complete-two-level:2,3", complete_two_level(2, 3)),
        ("COMPLETE-TWO-LEVEL:3,2", complete_two_level(3, 2)),
        ("butterfly:2", None),
        ("harp", None),
        ("harp:,", None),
        ("harp:1", None),
        ("chain", None),
        ("chain:3,4", None),
        ("chain:x", None),
        ("chain:0", None),
        ("crown:5", None),
        ("widget:3", None),
        ("", None),
    ],
)
def test_make_poset_grammar(spec, expected):
    """None stands for a ValueError."""
    if expected is None:
        with pytest.raises(ValueError):
            make_poset(spec)
    else:
        assert make_poset(spec) == expected


def rep_json(rep):
    return jsonio.dumps(jsonio.representation_to_json(rep))


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("crown14", rep_crown14()),
        ("crown14:", rep_crown14()),
        ("even_cycle:2", rep_even_cycle(2)),
        ("even_cycle:3", rep_even_cycle(3)),
        ("even_cycle:+3", rep_even_cycle(3)),
        ("tight_cycle:3,2", rep_tight_cycle(3, 2)),
        # accepted since gen-rep reads the poset grammar
        ("EVEN_CYCLE:3", rep_even_cycle(3)),
        ("even-cycle:3", rep_even_cycle(3)),
        (" crown14", rep_crown14()),
        ("even_cycle:3,", rep_even_cycle(3)),
        ("tight_cycle:3,,2", rep_tight_cycle(3, 2)),
        ("widget", None),
        ("", None),
        ("even_cycle", None),
        ("even_cycle:1,2", None),
        ("even_cycle:x", None),
        ("even_cycle:1", None),
        ("crown14:3", None),
        ("tight_cycle:3", None),
        ("tight_cycle:1,1", None),
    ],
)
def test_gen_rep_grammar(capsys, kind, expected):
    """Exit 0 with the representation's bytes, or exit 2 with no stdout
    when expected is None."""
    if expected is None:
        assert run(capsys, "gen-rep", "--kind", kind) == (2, "")
    else:
        assert run(capsys, "gen-rep", "--kind", kind) == (0, rep_json(expected))


@pytest.mark.parametrize("sizes", ["2,2,", ",2,2", "2, 2", "2,,2"])
def test_turan_sizes_skip_blank_pieces(capsys, sizes):
    expected = run(capsys, "turan", "--n", "4", "--k", "2", "--sizes", "2,2")
    assert expected[0] == 0
    assert run(capsys, "turan", "--n", "4", "--k", "2", "--sizes", sizes) == expected


def test_turan_sizes_reject_a_bad_piece(capsys):
    for sizes in ("2,x", "", ","):
        assert run(capsys, "turan", "--n", "4", "--k", "2", "--sizes", sizes) == (2, "")


def doc_kinds(cell: str) -> set[str]:
    """The kind names of the backticked specs in a table cell."""
    return {m.group(1) for m in re.finditer(r"`([a-z0-9_]+)(?::[^`]*)?`", cell)}


def test_formats_doc_lists_the_poset_kinds():
    lines = FORMATS.read_text(encoding="utf-8").splitlines()
    start = lines.index("| string | poset |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1])
    assert set().union(*map(doc_kinds, rows)) == set(POSET_KINDS)
    assert len(rows) == len(POSET_KINDS)


def test_formats_doc_lists_the_gen_rep_kinds():
    (row,) = [
        line
        for line in FORMATS.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `gen-rep` |")
    ]
    inputs = row.split(" | ")[1]
    assert doc_kinds(inputs) == set(_GENERATORS)


def test_formats_doc_lists_each_verbs_flags():
    """The inputs cell of each verb row names the verb's flags; --budget is
    documented once for all budgeted verbs."""
    lines = FORMATS.read_text(encoding="utf-8").splitlines()
    start = lines.index("| verb | inputs | stdout on success |")
    doc = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        verb, inputs = re.match(r"\| `([a-z-]+)` \| (.*?) \| ", line).groups()
        doc[verb] = set(re.findall(r"--[a-z][a-z-]*", inputs))
    for verb in BUDGETED_VERBS:
        doc[verb].add("--budget")
    assert doc == parser_flags()
