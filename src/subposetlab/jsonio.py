"""JSON encoding and decoding for the package's value types.

Exactness rule: rationals are always {"num": str, "den": str}; integers
wider than 53 bits become decimal strings so no consumer is forced through
a double.  Encoders emit keys in a fixed order and dumps() uses fixed
formatting, so equal values serialize to identical bytes.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .hypergraphs import Hypergraph, Partition
from .lattice import ChainDecomposition, SubsetFamily, elements_of_mask
from .posets import Poset, from_cover_relations, make_poset
from .representations import KPartiteRepresentation, RepresentationCertificate

_SAFE = 1 << 53
_INF = float("inf")
_INT_ONLY = frozenset((int,))
_END = object()
_int_repr = int.__repr__
_float_repr = float.__repr__


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
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"expected an array of integers, got {type(row).__name__}")
        out.append(list(map(decode_int, row)))
    return out


def encode_fraction(x: Fraction) -> dict:
    return {"num": _digits(x.numerator), "den": _digits(x.denominator)}


def family_to_json(fam: SubsetFamily) -> dict:
    return {"n": fam.n, "sets": [list(s) for s in fam.sets()]}


def family_from_json(obj) -> SubsetFamily:
    if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
        raise ValueError("a family is an object with keys n and sets")
    return SubsetFamily.from_sets(decode_int(obj["n"]), _int_rows(obj["sets"]))


def poset_to_json(p: Poset) -> dict:
    return {"size": p.size, "covers": [list(c) for c in p.cover_relations()]}


def poset_from_json(v) -> Poset:
    if isinstance(v, str):
        return make_poset(v)
    if isinstance(v, dict) and "size" in v and "covers" in v:
        return from_cover_relations(decode_int(v["size"]), _int_rows(v["covers"]))
    raise ValueError("a poset is a generator string or {size, covers}")


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"k": h.k, "l": h.l, "edges": [list(e) for e in h.edge_sets()]}


def hypergraph_from_json(obj) -> Hypergraph:
    if not isinstance(obj, dict) or not {"k", "l", "edges"} <= set(obj):
        raise ValueError("a hypergraph is an object with keys k, l, edges")
    return Hypergraph.from_edge_sets(
        decode_int(obj["k"]), decode_int(obj["l"]), _int_rows(obj["edges"])
    )


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
    fam = SubsetFamily.from_sets(l, _int_rows(obj["family"]))
    target = poset_from_json(obj["target"])
    name = obj["target"] if isinstance(obj["target"], str) else None
    return KPartiteRepresentation(k, l, fam, target, name)


def certificate_to_json(cert: RepresentationCertificate) -> dict:
    out = representation_to_json(cert.rep)
    out["embedding"] = list(cert.embedding)
    out["partition"] = partition_to_json(cert.partition)
    return out


def decomposition_to_json(dec: ChainDecomposition) -> dict:
    return {
        "n": dec.n,
        "level_lo": dec.level_lo,
        "level_hi": dec.level_hi,
        "count": len(dec),
        "chains": [
            [list(elements_of_mask(m)) for m in chain] for chain in dec.chains
        ],
    }


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


def _key_text(key) -> str:
    """A dict key as the string json.dumps writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int_repr(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def dumps(obj) -> str:
    """Canonical text form: two-space indent, fixed separators, trailing
    newline, keys in insertion order.

    The text is exactly what ``json.dumps`` writes with an indent of 2 and
    the separators ``","`` and ``": "``, ASCII escapes included, plus the
    newline.  Containers are walked on an explicit stack, and a list or
    tuple of plain ints is written in one join.
    """
    out = []
    # open containers, innermost last: [items, is_dict, separator before
    # the next item, separator after the first, closing text, id]
    stack = []
    open_ids = set()  # json's markers: a container met again inside itself
    value = obj
    while True:
        if isinstance(value, str):
            out.append(_encode_str(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(_int_repr(value))
        elif isinstance(value, float):
            out.append(_float_text(value))
        elif isinstance(value, (list, tuple, dict)):
            is_dict = isinstance(value, dict)
            if not value:
                out.append("{}" if is_dict else "[]")
            else:
                newline = "\n" + "  " * (len(stack) + 1)
                close = newline[:-2] + ("}" if is_dict else "]")
                if not is_dict and _INT_ONLY.issuperset(map(type, value)):
                    # it holds no container, so it cannot hold itself
                    out.append("[" + newline + ("," + newline).join(map(_int_repr, value)) + close)
                else:
                    if id(value) in open_ids:
                        raise ValueError("Circular reference detected")
                    open_ids.add(id(value))
                    out.append("{" if is_dict else "[")
                    items = iter(value.items() if is_dict else value)
                    stack.append([items, is_dict, newline, "," + newline, close, id(value)])
        else:
            raise TypeError(
                f"Object of type {value.__class__.__name__} is not JSON serializable"
            )
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
                out.append(frame[2] + _encode_str(_key_text(key)) + ": ")
            else:
                value = item
                out.append(frame[2])
            frame[2] = frame[3]
            break
        else:
            break
    out.append("\n")
    return "".join(out)
