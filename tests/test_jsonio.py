import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subposetlab import (
    Hypergraph,
    SubsetFamily,
    chain,
    crown,
    decode_int,
    decomposition_to_json,
    dumps,
    encode_fraction,
    encode_int,
    family_from_json,
    family_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    partition_to_json,
    poset_from_json,
    poset_to_json,
    rep_crown14,
    representation_from_json,
    representation_to_json,
    certificate_to_json,
    symmetric_chain_decomposition,
    verify_representation,
)


def test_encode_int_53_bit_rule():
    assert encode_int(0) == 0
    assert encode_int(2**53) == 2**53
    assert encode_int(-(2**53)) == -(2**53)
    assert encode_int(2**53 + 1) == str(2**53 + 1)
    assert encode_int(-(2**53) - 1) == str(-(2**53) - 1)


@given(st.integers(min_value=-(2**80), max_value=2**80))
def test_int_round_trip(x):
    assert decode_int(encode_int(x)) == x


def test_decode_int_rejects_junk():
    with pytest.raises(ValueError):
        decode_int(True)
    with pytest.raises(ValueError):
        decode_int(1.5)
    with pytest.raises(ValueError):
        decode_int("0x10")


@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=1, max_value=2**70),
)
def test_fraction_round_trip(num, den):
    x = Fraction(num, den)
    enc = encode_fraction(x)
    assert set(enc) == {"num", "den"}
    assert isinstance(enc["num"], str) and isinstance(enc["den"], str)
    assert Fraction(int(enc["num"]), int(enc["den"])) == x


def test_family_round_trip():
    fam = SubsetFamily.from_sets(4, [[2], [1, 3], [1, 2, 4]])
    obj = family_to_json(fam)
    assert obj == {"n": 4, "sets": [[2], [1, 3], [1, 2, 4]]}
    assert family_from_json(obj) == fam
    assert family_from_json(json.loads(dumps(obj))) == fam
    with pytest.raises(ValueError):
        family_from_json({"n": 4})


def test_poset_round_trip():
    p = crown(6)
    obj = poset_to_json(p)
    assert obj["size"] == 6
    q = poset_from_json(obj)
    assert q.up == p.up
    assert poset_from_json("crown:6").up == p.up
    with pytest.raises(ValueError):
        poset_from_json(17)


def test_hypergraph_round_trip():
    h = Hypergraph.from_edge_sets(2, 4, [[1, 2], [3, 4]])
    obj = hypergraph_to_json(h)
    assert obj == {"k": 2, "l": 4, "edges": [[1, 2], [3, 4]]}
    assert hypergraph_from_json(obj) == h
    with pytest.raises(ValueError):
        hypergraph_from_json({"k": 2, "l": 4})


def test_representation_round_trip():
    rep = rep_crown14()
    obj = representation_to_json(rep)
    assert obj["k"] == 3 and obj["l"] == 7
    assert obj["target"] == "crown:14"
    back = representation_from_json(obj)
    assert back == rep
    # explicit cover-relation targets survive too
    obj["target"] = poset_to_json(rep.target)
    back = representation_from_json(obj)
    assert back.target.up == rep.target.up
    assert back.target_name is None


def test_certificate_payload():
    rep = rep_crown14()
    cert = verify_representation(rep)
    obj = certificate_to_json(cert)
    assert list(obj) == ["k", "l", "family", "target", "embedding", "partition"]
    assert obj["partition"] == [[1, 4], [2, 6], [3, 5, 7]]
    assert sorted(obj["embedding"]) == list(range(14))


def test_partition_payload():
    rep = rep_crown14()
    cert = verify_representation(rep)
    assert partition_to_json(cert.partition) == [[1, 4], [2, 6], [3, 5, 7]]


def test_decomposition_payload():
    dec = symmetric_chain_decomposition(3, 1, 3)
    obj = decomposition_to_json(dec)
    assert obj["n"] == 3 and obj["level_lo"] == 1 and obj["level_hi"] == 3
    assert obj["count"] == len(dec.chains) == 3
    for chain_sets in obj["chains"]:
        sizes = [len(s) for s in chain_sets]
        assert sizes == sorted(sizes)


def test_dumps_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    text = dumps(obj)
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert dumps(obj) == text


class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    pass


class _Dict(dict):
    pass


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, separators=(",", ": ")) + "\n"


_scalars = (
    st.text()
    | st.text().map(_Str)
    | st.sampled_from(["", '"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é ü ∑ 😀 \u2028"])
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**53 - 2, max_value=2**70)
    | st.integers(max_value=-1)
    | st.integers(-5, 5).map(_Int)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
)
_keys = (
    st.text()
    | st.text().map(_Str)
    | st.integers()
    | st.integers(-5, 5).map(_Int)
    | st.booleans()
    | st.none()
    | st.floats()
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers(), min_size=1)
    | st.dictionaries(_keys, inner)
    | st.dictionaries(_keys, inner).map(_Dict),
    max_leaves=40,
)


@given(_json_values)
def test_dumps_matches_the_json_reference(value):
    assert dumps(value) == reference_dumps(value)


def test_dumps_matches_the_json_errors():
    loop = [1]
    loop.append([2, loop])
    table = {"a": 1}
    table["b"] = [table]
    for value in (loop, table):
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(value)
    for value in ({"x": [1, {2}]}, {(1,): 2}, object(), Fraction(1, 2)):
        with pytest.raises(TypeError) as ours:
            dumps(value)
        with pytest.raises(TypeError) as ref:
            reference_dumps(value)
        assert str(ours.value) == str(ref.value)


def test_dumps_repeats_a_shared_container():
    shared = [1, [2]]
    value = {"a": shared, "b": (shared, shared)}
    assert dumps(value) == reference_dumps(value)


def test_dumps_has_no_depth_limit():
    # past the depth at which the recursive json encoder stops; the text
    # grows with the square of the depth, by the indentation
    value = []
    for _ in range(3_000):
        value = [value]
    assert dumps(value).count("[") == 3_001


def test_chain_poset_json_symmetry():
    # generator strings and explicit covers describe the same poset
    assert poset_from_json("chain:4").up == poset_from_json(
        {"size": 4, "covers": [[0, 1], [1, 2], [2, 3]]}
    ).up
    assert poset_from_json("chain:4").up == chain(4).up
