import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    Hypergraph,
    SubsetFamily,
    band_peak_level,
    chain,
    crown,
    decode_int,
    decomposition_text,
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
from subposetlab.jsonio import MAX_FAMILY_N, MAX_PARTITE_BITS
from subposetlab.lattice import ChainDecomposition, elements_of_mask


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


def test_poset_covers_must_be_pairs():
    for covers, i, got in (([[0, 1, 2]], 0, 3), ([[0, 1], [0]], 1, 1), ([[]], 0, 0)):
        with pytest.raises(ValueError, match=f"^cover {i} must be a pair of elements, got {got}$"):
            poset_from_json({"size": 3, "covers": covers})


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


def reference_decomposition_text(dec, peak_level):
    payload = {
        "n": dec.n,
        "level_lo": dec.level_lo,
        "level_hi": dec.level_hi,
        "peak_level": peak_level,
        "count": len(dec),
        "chains": [[list(elements_of_mask(m)) for m in c] for c in dec.chains],
    }
    return json.dumps(payload, indent=2, separators=(",", ": ")) + "\n"


def test_decomposition_text_matches_json_on_every_band():
    """Every band up to n = 12, and for n = 13 to 16 the bottom and top
    four levels (the whole n = 16 lattice is pinned in test_cli)."""
    bands = [(n, lo, hi) for n in range(13) for lo in range(n + 1) for hi in range(lo, n + 1)]
    bands += [(n, lo, hi) for n in range(13, 17) for lo, hi in ((0, 3), (n - 3, n))]
    for n, lo, hi in bands:
        dec = symmetric_chain_decomposition(n, lo, hi)
        peak = band_peak_level(n, lo, hi)
        assert decomposition_text(dec, peak) == reference_decomposition_text(dec, peak)


def test_decomposition_text_writes_hand_built_members():
    """A hand-built decomposition need not be saturated, nor keep its masks
    below 2^n: every member is written from its own mask."""
    chains = (
        (0b0000, 0b0101, 0b0111),  # the empty member, then two levels up
        (0b0100, 0b0101, 0b0111, 0b1111),
        (0b0010, 0b1000, 0b1001),
        (0b0110, 0b0010),  # shrinking
        (1 << 8, 1 << 7 | 1 << 8, 1 << 7 | 1 << 8 | 1),  # {9}, {8, 9}, {1, 8, 9}
        (1 << 7, 0xFFFF),
        (),
    )
    for dec, peak in (
        (ChainDecomposition(4, 0, 4, chains), 2),
        (ChainDecomposition(20, 3, 20, ((1 << 16, 1 << 16 | 1 << 19, (1 << 20) - 1),)), 10),
        (ChainDecomposition(3, 1, 1, ()), 1),
    ):
        assert decomposition_text(dec, peak) == reference_decomposition_text(dec, peak)


def test_dumps_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    text = dumps(obj)
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert dumps(obj) == text


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, separators=(",", ": ")) + "\n"


_scalars = (
    st.text()
    | st.sampled_from(["", '"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é ü ∑ 😀 \u2028"])
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**53 - 2, max_value=2**70)
    | st.integers(max_value=-1)
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner)
    | st.lists(st.integers(), min_size=1)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(_json_values)
def test_dumps_matches_the_json_reference(value):
    assert dumps(value) == reference_dumps(value)


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


def test_dumps_matches_the_json_errors():
    loop = [1]
    loop.append([2, loop])
    table = {"a": 1}
    table["b"] = [table]
    for value in (loop, table):
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(value)
    # the formats hold no other kind: each is refused by its type's name,
    # not written as json would write it
    for value, what in (
        (1.5, "value of type float"),
        (None, "value of type NoneType"),
        ((1,), "value of type tuple"),
        ({1: 2}, "key of type int"),
        ({"a": [{None: 1}]}, "key of type NoneType"),
        ({_Str("a"): 1}, "key of type _Str"),
        (_Str("a"), "value of type _Str"),
        ([True, 2, _Str("a")], "value of type _Str"),
        ([1, _Int(2)], "value of type _Int"),
        ({"a": _Dict()}, "value of type _Dict"),
        ({"x": [1, {2}]}, "value of type set"),
        (object(), "value of type object"),
        (Fraction(1, 2), "value of type Fraction"),
    ):
        with pytest.raises(TypeError, match=f"^cannot write a {what}$"):
            dumps(value)


def test_dumps_repeats_a_shared_container():
    shared = [1, [2]]
    value = {"a": shared, "b": [shared, shared]}
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


# What json.loads can return: scalars of every JSON kind (NaN and the
# infinities included), small and decimal-string integers and poset specs
# among them, in arrays and objects; and arrays of small integer arrays,
# the shape of every row list.
_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 9) | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["3", "-1", "2" * 5000, "crown:4", "chain:2"])
)
_ROWS = st.lists(st.lists(st.integers(-1, 9), max_size=4), max_size=5)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

# each file decoder and the keys its object needs
DECODERS = {
    family_from_json: ("n", "sets"),
    hypergraph_from_json: ("k", "l", "edges"),
    representation_from_json: ("k", "l", "family", "target"),
    poset_from_json: ("size", "covers"),
}


@pytest.mark.parametrize("decode", DECODERS, ids=lambda f: f.__name__)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decoders_return_or_raise_value_error(decode, data):
    """A decoder raises nothing but ValueError, whatever JSON it is given:
    the CLI turns a ValueError into exit 2 and lets any other exception
    through as a fault."""
    value = st.one_of(JSON_VALUES, _ROWS)
    obj = data.draw(JSON_VALUES | st.fixed_dictionaries(dict.fromkeys(DECODERS[decode], value)))
    try:
        decode(obj)
    except ValueError:
        pass


def test_row_lists_must_be_arrays():
    # iterating a string or an object would read its characters or keys
    for rows in (5, "12", {"1": [1]}, None):
        with pytest.raises(ValueError, match="expected an array of arrays"):
            family_from_json({"n": 3, "sets": rows})
        with pytest.raises(ValueError, match="expected an array of arrays"):
            hypergraph_from_json({"k": 2, "l": 3, "edges": rows})


def test_size_guards_come_before_any_row():
    # a row that would not decode shows that none was read
    bad_row = [[None]]
    with pytest.raises(ValueError, match=f"n must be at most {MAX_FAMILY_N}"):
        family_from_json({"n": MAX_FAMILY_N + 1, "sets": bad_row})
    with pytest.raises(ValueError, match="expected an integer"):
        family_from_json({"n": MAX_FAMILY_N, "sets": bad_row})
    l = MAX_PARTITE_BITS // 1001 + 1  # one row past the bound
    with pytest.raises(ValueError, match=r"l \* \(edges \+ 1000\) must be at most"):
        hypergraph_from_json({"k": 2, "l": l, "edges": bad_row})
    with pytest.raises(ValueError, match=r"l \* \(family \+ 1000\) must be at most"):
        representation_from_json({"k": 2, "l": l, "family": bad_row, "target": "chain:2"})
    with pytest.raises(ValueError, match="expected an integer"):
        hypergraph_from_json({"k": 2, "l": l - 1, "edges": bad_row})
