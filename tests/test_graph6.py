import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from indfree import (
    MAX_ORDER,
    CapacityError,
    Graph,
    ParseError,
    complement,
    complete_graph,
    decode_graph6,
    decode_graph6_list,
    empty_graph,
    encode_graph6,
    encode_graph6_list,
    enumerate_nonisomorphic,
    make_graph,
    path_graph,
)
from oracles import reference_decode_graph6, reference_encode_graph6

RNG = random.Random(77)


def test_empty_graph_on_five_encodes_to_handchecked_string():
    assert encode_graph6(empty_graph(5)) == "D??"


def test_k4_decodes_from_handchecked_string():
    assert decode_graph6("C~") == complete_graph(4)


def test_round_trip_all_graphs_up_to_six():
    for n in range(0, 7):
        for g in enumerate_nonisomorphic(n):
            assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_random_labeled_graphs():
    for _ in range(200):
        n = RNG.randrange(0, 20)
        g = make_graph(n, [e for e in combinations(range(n), 2) if RNG.random() < 0.4])
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_order_62_boundary():
    g = make_graph(62, [(0, 61), (1, 2)])
    assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_long_form_orders_63_and_64():
    for n, head in ((63, "~??~"), (64, "~?@?")):
        g = make_graph(n, [e for e in combinations(range(n), 2) if RNG.random() < 0.3])
        text = encode_graph6(g)
        assert text[:4] == head
        assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert decode_graph6(text) == g
    assert decode_graph6("~??~" + "?" * 326) == empty_graph(63)


def test_encode_rejects_order_65():
    with pytest.raises(CapacityError):
        encode_graph6(Graph(65, (0,) * 65))


def test_decode_rejects_long_form_below_63():
    # order 62 fits the one-byte header, so its long form is not canonical
    short = encode_graph6(empty_graph(62))
    with pytest.raises(ParseError) as err:
        decode_graph6("~??}" + short[1:])
    assert err.value.offset == 0


def test_decode_rejects_long_form_above_64():
    with pytest.raises(CapacityError):
        decode_graph6("~?@A" + "?" * 347)
    with pytest.raises(CapacityError):
        decode_graph6("~~???????")


def test_decode_rejects_bad_long_form_order_byte():
    with pytest.raises(ParseError) as err:
        decode_graph6("~?" + chr(10) + "~" + "?" * 326)
    assert err.value.offset == 2


def test_decode_rejects_empty():
    with pytest.raises(ParseError) as err:
        decode_graph6("")
    assert err.value.offset == 0


def test_decode_rejects_long_form_marker():
    with pytest.raises(ParseError) as err:
        decode_graph6("~??")
    assert err.value.offset == 0


def test_decode_rejects_bad_length():
    with pytest.raises(ParseError):
        decode_graph6("D?")
    with pytest.raises(ParseError):
        decode_graph6("D???")


def test_decode_length_offset_counts_bytes():
    # the excess starts after "B\u00e9", which takes three UTF-8 bytes
    with pytest.raises(ParseError) as err:
        decode_graph6("B\u00e9?")
    assert err.value.offset == 3
    assert str(err.value) == "graph6 string for order 3 needs 2 bytes, got 4 (at byte 3)"


def test_decode_rejects_out_of_range_byte():
    with pytest.raises(ParseError) as err:
        decode_graph6("D" + chr(10) + "?")
    assert err.value.offset == 1


def test_decode_rejects_nonzero_padding():
    # order 2 uses one data byte with a single meaningful bit; the rest
    # must be zero padding
    with pytest.raises(ParseError):
        decode_graph6("A" + chr(1 + 63))


def test_list_round_trip():
    graphs = [complete_graph(3), empty_graph(4), make_graph(2, [(0, 1)])]
    text = encode_graph6_list(graphs)
    assert text.endswith("\n")
    assert decode_graph6_list(text) == graphs


def test_list_skips_blank_lines():
    text = "\n" + encode_graph6(complete_graph(3)) + "\n\n"
    assert decode_graph6_list(text) == [complete_graph(3)]


def test_list_reports_global_offset():
    good = encode_graph6(complete_graph(3))
    with pytest.raises(ParseError) as err:
        decode_graph6_list(good + "\n\x07bad\n")
    assert err.value.offset >= len(good) + 1


@pytest.mark.parametrize(
    "text, offset",
    [
        # a bad byte after leading blanks: "C~\n" is bytes 0-2, "  D" 3-5
        ("C~\n  D\x01?", 6),
        # a no-break space takes two bytes, so the bad byte is byte 6
        ("C~\n\u00a0D\x01?", 6),
        # a short line: its end, after the blanks, is byte 7
        ("C~\n  D?\n", 7),
        ("\u00a0C~\n\u00a0D?", 9),
        # a lone surrogate from a caller's str counts three bytes
        ("D?\ud800?", 5),
    ],
)
def test_list_offsets_count_bytes_as_typed(text, offset):
    with pytest.raises(ParseError) as err:
        decode_graph6_list(text)
    assert err.value.offset == offset


# the codec against the bit-at-a-time reference in tests/oracles.py


@st.composite
def wide_graphs(draw):
    """Graphs of order 0-64, sparse, even or dense."""
    n = draw(st.integers(0, 64))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    top = (1 << len(pairs)) - 1
    mask = draw(st.integers(0, top))
    density = draw(st.sampled_from(("sparse", "even", "dense")))
    if density == "sparse":
        mask &= draw(st.integers(0, top)) & draw(st.integers(0, top))
    elif density == "dense":
        mask |= draw(st.integers(0, top)) | draw(st.integers(0, top))
    return make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=300, deadline=None)
@given(wide_graphs())
def test_codec_matches_reference(g):
    text = encode_graph6(g)
    assert text == reference_encode_graph6(g)
    assert decode_graph6(text) == g


def _sweep_graphs():
    """Per order 0..64: empty, complete, path, a seeded random graph and
    its complement."""
    rng = random.Random(64)
    out = []
    for n in range(MAX_ORDER + 1):
        g = make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        out += [empty_graph(n), complete_graph(n), path_graph(n), g, complement(g)]
    return out


SWEEP = _sweep_graphs()


def test_codec_matches_reference_at_every_order():
    for g in SWEEP:
        text = reference_encode_graph6(g)
        assert encode_graph6(g) == text
        h = decode_graph6(text)
        assert h == g
        assert all(type(r) is int for r in h.rows)
        assert all(h.rows[u] >> u & 1 == 0 for u in range(h.order))
        assert all(h.rows[u] >> v & 1 == h.rows[v] >> u & 1 for u in range(h.order) for v in range(u))


def test_list_round_trip_mixes_every_order():
    graphs = SWEEP[3::5]
    random.Random(65).shuffle(graphs)
    assert sorted({g.order for g in graphs}) == list(range(MAX_ORDER + 1))
    text = encode_graph6_list(graphs)
    assert text == "".join(reference_encode_graph6(g) + "\n" for g in graphs)
    assert decode_graph6_list(text) == graphs


def _outcome(decode, text):
    try:
        return decode(text)
    except (ParseError, CapacityError) as e:
        return type(e), str(e), getattr(e, "offset", None)


def _body_with(n: int, pos: int, char: str) -> str:
    text = reference_encode_graph6(complete_graph(n))
    return text[:pos] + char + text[pos + 1:]


MALFORMED = {
    "empty": "",
    "bad header byte": "\x01",
    "blank header byte": " ??",
    "header byte 127": "\x7f",
    "non-ASCII header": "\u00e9??",
    "bad first body byte": _body_with(10, 1, "\x01"),
    "bad middle body byte": _body_with(10, 5, " "),
    "bad last body byte": _body_with(10, 8, "\x7f"),
    "non-ASCII last body byte": _body_with(10, 8, "\u00e9"),
    "surrogate escape in body": _body_with(10, 4, "\udcff"),
    "long form, bad first body byte": _body_with(64, 4, "\x00"),
    "long form, bad middle body byte": _body_with(64, 170, "\x00"),
    "long form, bad last body byte": _body_with(64, 339, "\x00"),
    "short": "D?",
    "long": "D???",
    "short by one": reference_encode_graph6(complete_graph(10))[:-1],
    "long by one": reference_encode_graph6(complete_graph(10)) + "?",
    "long form, short by one": reference_encode_graph6(complete_graph(63))[:-1],
    "long form, long by one": reference_encode_graph6(complete_graph(64)) + "~",
    "long after a two-byte character": "B\u00e9?",
    # orders 2, 10 and 63 leave 5, 3 and 3 padding bits
    "padding, order 2, lowest bit": "A@",
    "padding, order 2, highest bit": "AO",
    "padding, order 2, both bits": "A`",
    "padding, order 10": _body_with(10, 8, "~"),
    "padding, order 10, lowest bit": _body_with(10, 8, "x"),
    "padding, order 63": _body_with(63, 329, "@"),
    "long form marker alone": "~",
    "truncated long form": "~?",
    "truncated long form order": "~??",
    "bad long form order byte": "~?" + chr(10) + "~" + "?" * 326,
    "non-canonical long form": "~??}" + "?" * 315,
    "long form order 65": "~?@A" + "?" * 347,
    "~~": "~~",
    "~~ with an order": "~~???????",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_fails_like_reference(text):
    want = _outcome(reference_decode_graph6, text)
    assert isinstance(want, tuple), "each case must be malformed"
    assert _outcome(decode_graph6, text) == want


@settings(max_examples=300, deadline=None)
@given(
    wide_graphs(),
    st.lists(
        st.tuples(st.sampled_from(("put", "insert", "delete")), st.integers(0, 400), st.characters()),
        min_size=1,
        max_size=3,
    ),
)
def test_edited_text_decodes_like_reference(g, edits):
    text = list(reference_encode_graph6(g))
    for op, at, char in edits:
        at %= len(text) + 1
        if op == "insert":
            text.insert(at, char)
        elif at < len(text):
            if op == "put":
                text[at] = char
            else:
                del text[at]
    text = "".join(text)
    assert _outcome(decode_graph6, text) == _outcome(reference_decode_graph6, text)
