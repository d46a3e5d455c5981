import random
from itertools import combinations

import pytest

from indfree import (
    CapacityError,
    Graph,
    ParseError,
    complete_graph,
    decode_graph6,
    decode_graph6_list,
    empty_graph,
    encode_graph6,
    encode_graph6_list,
    enumerate_nonisomorphic,
    make_graph,
)

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
