"""JSON encoding and decoding for the package's value types.

Exactness rule: rationals are always {"num": str, "den": str}; integers
wider than 53 bits become decimal strings so no consumer is forced through
a double.  Encoders emit keys in a fixed order and dumps() uses fixed
formatting, so equal values serialize to identical bytes; dumps() writes
only str, int, bool, list and str-keyed dict, which is all they emit.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str

from .hypergraphs import Hypergraph, Partition
from .lattice import ChainDecomposition, SubsetFamily
from .posets import Poset, from_cover_relations, make_poset
from .representations import KPartiteRepresentation, RepresentationCertificate

_SAFE = 1 << 53
# Largest n of a family, checked before any set is decoded: a member
# holding element n is an n-bit int.
MAX_FAMILY_N = 50_000
# Largest l * (rows + 1000) of a hypergraph (rows: its edges) or a
# representation (its family), checked before any row is decoded.  A row is
# an int of up to l bits and a vertex costs about 1,000 bits besides, so
# memory stays near 2^30 bits of each: in partite, the path on l = 32,000
# takes about 110 MB and 1 s, one edge on l = 1,000,000 about 130 MB and
# 0.6 s (2-core x86, Python 3.11).
MAX_PARTITE_BITS = 2**30
_INT_ONLY = frozenset((int,))
_END = object()


def _digits(x: int) -> str:
    # str() refuses ints past 4,300 digits; the Decimal form is exact at any size
    return format(Decimal(x), "f")


def encode_int(x: int):
    return x if -_SAFE <= x <= _SAFE else _digits(x)


def decode_int(v) -> int:
    if type(v) is int:  # not a bool, which JSON's true and false decode to
        return v
    if isinstance(v, str):
        return int(v, 10)
    raise ValueError(f"expected an integer, got {type(v).__name__}")


def _int_rows(rows) -> list[list[int]]:
    """An array of integer arrays, each integer read by decode_int: the
    members of a family or a representation, the edges of a hypergraph,
    the cover pairs of a poset."""
    if not isinstance(rows, list):
        raise ValueError(f"expected an array of arrays, got {type(rows).__name__}")
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"expected an array of integers, got {type(row).__name__}")
        out.append(list(map(decode_int, row)))
    return out


def _vertex_rows(l: int, rows, what: str) -> list[list[int]]:
    """_int_rows for the rows of a vertex set [l], refused before any is
    decoded when l * (len(rows) + 1000) exceeds MAX_PARTITE_BITS."""
    if isinstance(rows, list) and l * (len(rows) + 1000) > MAX_PARTITE_BITS:
        raise ValueError(f"l * ({what} + 1000) must be at most {MAX_PARTITE_BITS}")
    return _int_rows(rows)


def encode_fraction(x: Fraction) -> dict:
    return {"num": _digits(x.numerator), "den": _digits(x.denominator)}


def family_to_json(fam: SubsetFamily) -> dict:
    return {"n": fam.n, "sets": [list(s) for s in fam.sets()]}


def family_from_json(obj) -> SubsetFamily:
    if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
        raise ValueError("a family is an object with keys n and sets")
    n = decode_int(obj["n"])
    if n > MAX_FAMILY_N:
        raise ValueError(f"n must be at most {MAX_FAMILY_N}")
    return SubsetFamily.from_sets(n, _int_rows(obj["sets"]))


def poset_to_json(p: Poset) -> dict:
    return {"size": p.size, "covers": [list(c) for c in p.cover_relations()]}


def poset_from_json(v) -> Poset:
    if isinstance(v, str):
        return make_poset(v)
    if isinstance(v, dict) and "size" in v and "covers" in v:
        size, covers = decode_int(v["size"]), _int_rows(v["covers"])
        for i, cover in enumerate(covers):
            if len(cover) != 2:
                raise ValueError(f"cover {i} must be a pair of elements, got {len(cover)}")
        return from_cover_relations(size, covers)
    raise ValueError("a poset is a generator string or {size, covers}")


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"k": h.k, "l": h.l, "edges": [list(e) for e in h.edge_sets()]}


def hypergraph_from_json(obj) -> Hypergraph:
    if not isinstance(obj, dict) or not {"k", "l", "edges"} <= set(obj):
        raise ValueError("a hypergraph is an object with keys k, l, edges")
    k = decode_int(obj["k"])
    l = decode_int(obj["l"])
    return Hypergraph.from_edge_sets(k, l, _vertex_rows(l, obj["edges"], "edges"))


def partition_to_json(p: Partition) -> list:
    return [list(part) for part in p.parts]


def representation_to_json(rep: KPartiteRepresentation) -> dict:
    return {
        "k": rep.k,
        "l": rep.l,
        "family": [list(s) for s in rep.family.sets()],
        "target": (
            poset_to_json(rep.target) if rep.target_name is None else rep.target_name
        ),
    }


def representation_from_json(obj) -> KPartiteRepresentation:
    if not isinstance(obj, dict) or not {"k", "l", "family", "target"} <= set(obj):
        raise ValueError(
            "a representation is an object with keys k, l, family, target"
        )
    k = decode_int(obj["k"])
    l = decode_int(obj["l"])
    fam = SubsetFamily.from_sets(l, _vertex_rows(l, obj["family"], "family"))
    target = poset_from_json(obj["target"])
    name = obj["target"] if isinstance(obj["target"], str) else None
    return KPartiteRepresentation(k, l, fam, target, name)


def certificate_to_json(cert: RepresentationCertificate) -> dict:
    out = representation_to_json(cert.rep)
    out["embedding"] = list(cert.embedding)
    out["partition"] = partition_to_json(cert.partition)
    return out


# between two elements of a chain member in the scd output
_ELEMENT_SEP = ",\n        "
_DECOMPOSITION_HEAD = (
    '{\n  "n": %d,\n  "level_lo": %d,\n  "level_hi": %d,\n'
    '  "peak_level": %d,\n  "count": %d,\n  "chains": '
)


@cache
def _byte_elements(j: int) -> tuple[str, ...]:
    """Entry b: the elements 8j + 1 to 8j + 8 that the byte value b picks
    out, each with the element separator before it."""
    return tuple(
        "".join([_ELEMENT_SEP + str(8 * j + i + 1) for i in range(8) if b >> i & 1])
        for b in range(256)
    )


def decomposition_text(dec: ChainDecomposition, peak_level: int) -> str:
    """The scd output for a decomposition: dumps() of {n, level_lo,
    level_hi, peak_level, count, chains}, each chain a list of members and
    each member its sorted 1-based element list.

    Every mask is cut into bytes, as many as the largest mask needs, and a
    member's text is joined from one table entry per byte, so no element
    list is built and no int is written on its own.
    """
    masks = list(chain.from_iterable(dec.chains))
    width = max(1, (max(masks, default=0).bit_length() + 7) // 8)
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    columns = [map(_byte_elements(j).__getitem__, data[j::width]) for j in range(width)]
    # a body opens with the element separator; the member's bracket takes
    # the place of its comma
    members = (
        "[" + body[1:] + "\n      ]" if body else "[]"
        for body in map("".join, zip(*columns))
    )
    chains = [
        "[\n      " + ",\n      ".join(islice(members, len(c))) + "\n    ]" if c else "[]"
        for c in dec.chains
    ]
    head = _DECOMPOSITION_HEAD % (dec.n, dec.level_lo, dec.level_hi, peak_level, len(dec))
    if not chains:
        return head + "[]\n}\n"
    # one join, so the whole text (7 MB at n = 16) is copied once
    chains[0] = head + "[\n    " + chains[0]
    chains[-1] += "\n  ]\n}\n"
    return ",\n    ".join(chains)


def dumps(obj) -> str:
    """Canonical text form: two-space indent, fixed separators, trailing
    newline, keys in insertion order.

    The text is exactly what ``json.dumps`` writes with an indent of 2 and
    the separators ``","`` and ``": "``, ASCII escapes included, plus the
    newline.  Only a str, int, bool, list or str-keyed dict, of exactly that
    type, is written; anything else raises TypeError.  Containers are walked
    on an explicit stack, and a list of plain ints is written in one join.
    """
    out = []
    # open containers, innermost last: [items, is_dict, separator before
    # the next item, separator after the first, closing text, id]
    stack = []
    open_ids = set()  # a container met again inside itself
    value = obj
    while True:
        kind = type(value)
        if kind is str:
            out.append(_encode_str(value))
        elif kind is int:
            out.append(str(value))
        elif kind is bool:
            out.append("true" if value else "false")
        elif kind is list or kind is dict:
            is_dict = kind is dict
            if not value:
                out.append("{}" if is_dict else "[]")
            else:
                newline = "\n" + "  " * (len(stack) + 1)
                close = newline[:-2] + ("}" if is_dict else "]")
                if not is_dict and _INT_ONLY.issuperset(map(type, value)):
                    # it holds no container, so it cannot hold itself
                    out.append("[" + newline + ("," + newline).join(map(str, value)) + close)
                else:
                    if id(value) in open_ids:
                        raise ValueError("Circular reference detected")
                    open_ids.add(id(value))
                    out.append("{" if is_dict else "[")
                    items = iter(value.items() if is_dict else value)
                    stack.append([items, is_dict, newline, "," + newline, close, id(value)])
        else:
            raise TypeError(f"cannot write a value of type {kind.__name__}")
        while stack:
            frame = stack[-1]
            item = next(frame[0], _END)
            if item is _END:
                out.append(frame[4])
                open_ids.discard(frame[5])
                stack.pop()
                continue
            if frame[1]:
                key, value = item
                if type(key) is not str:
                    raise TypeError(f"cannot write a key of type {type(key).__name__}")
                out.append(frame[2] + _encode_str(key) + ": ")
            else:
                value = item
                out.append(frame[2])
            frame[2] = frame[3]
            break
        else:
            break
    out.append("\n")
    return "".join(out)
