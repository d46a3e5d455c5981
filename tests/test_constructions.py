import hashlib
import time

import pytest

from indfree import (
    CapacityError,
    HParams,
    ParameterError,
    QParams,
    RangeError,
    SplitParams,
    complement,
    complete_graph,
    contains_induced,
    cycle_graph,
    encode_graph6,
    disjoint_union,
    empty_graph,
    h_graph,
    is_isomorphic,
    k3k2_decompose,
    k3k2_witness,
    make_graph,
    matching_witness,
    parse_graph,
    path_graph,
    q_graph,
    s_graph,
    split_pack_witness,
    star_graph,
    uep_witness,
    witness,
)
from indfree.classifier import Construction
from indfree.constructions import _h_rows, _min_clique_order, _q_rows
from indfree.graphs import _co_rows
from oracles import reference_h_graph, reference_q_graph, reference_s_graph


def binom2(n):
    return n * (n - 1) // 2


# parameter validation


def test_h_params_validation():
    HParams(0, 0, 3)
    HParams(5, 4, 0)
    with pytest.raises(ParameterError):
        HParams(3, 3, 0)
    with pytest.raises(ParameterError):
        HParams(-1, 0, 0)
    with pytest.raises(ParameterError):
        HParams(0, 1, 2)


def test_q_params_validation():
    QParams(7, 0, 1, 2)
    with pytest.raises(ParameterError):
        QParams(6, 0, 1, 2)
    with pytest.raises(ParameterError):
        QParams(3, 0, -1, 0)


def test_split_params_validation():
    SplitParams(1, 1)
    with pytest.raises(ParameterError):
        SplitParams(1, 0)
    with pytest.raises(ParameterError):
        SplitParams(-2, 5)


# H(p,q,r)


def test_h_graph_is_paw(paw):
    g = h_graph(HParams(4, 2, 0))
    assert g.edge_count == 4
    assert is_isomorphic(g, paw)


def test_h_graph_full_clique():
    for p in range(7):
        assert h_graph(HParams(p, 0, 0)) == complete_graph(p)


def test_h_graph_path_plus_isolate():
    g = h_graph(HParams(3, 1, 1))
    assert g.edge_count == 2
    assert is_isomorphic(g, disjoint_union(path_graph(3), empty_graph(1)))


def test_h_graph_edge_count_formula():
    for p in range(7):
        for q in range(max(p, 1)):
            for r in range(3):
                params = HParams(p, q, r)
                g = h_graph(params)
                assert g.order == params.order == p + r
                assert g.edge_count == params.edge_count == binom2(p) - q


# S(p,r)


def test_s_graph_star():
    assert is_isomorphic(s_graph(SplitParams(1, 3)), star_graph(3))


def test_s_graph_clique():
    for p in range(1, 6):
        assert is_isomorphic(s_graph(SplitParams(p, 1)), complete_graph(p + 1))


def test_s_graph_p2_is_bigger_clique_minus_edge():
    # the r = 2 case: all of K_{p+2} except the edge inside the
    # independent part
    for p in range(1, 5):
        want = make_graph(
            p + 2,
            [(u, v) for u in range(p + 2) for v in range(u + 1, p + 2) if (u, v) != (p, p + 1)],
        )
        assert is_isomorphic(s_graph(SplitParams(p, 2)), want)


def test_s_graph_complement_identity():
    for p in range(0, 5):
        for r in range(0, 5):
            if p + r < 2:
                continue
            assert is_isomorphic(
                s_graph(SplitParams(p, r)), complement(h_graph(HParams(r, 0, p)))
            )


# Q(p,r,x,y)


def test_q_graph_minus_triangle():
    g = q_graph(QParams(5, 0, 1, 0))
    assert g.edge_count == 7


def test_q_graph_trivial_packing_is_h():
    for p in range(6):
        for r in range(3):
            assert q_graph(QParams(p, r, 0, 0)) == h_graph(HParams(p, 0, r))


def test_q_graph_perfect_matching_is_cycle():
    assert is_isomorphic(q_graph(QParams(4, 0, 0, 2)), cycle_graph(4))


def test_q_graph_overlap_with_h_family():
    # deleting zero or one edge is the only overlap with H graphs
    for p in range(2, 7):
        for r in range(3):
            for y in (0, 1):
                assert is_isomorphic(
                    q_graph(QParams(p, r, 0, y)), h_graph(HParams(p, y, r))
                )


# uep_witness


def test_uep_full_clique():
    assert uep_witness(4, 6) == complete_graph(4)


def test_uep_paw_plus_isolate(paw):
    g = uep_witness(5, 4)
    assert g.edge_count == 4
    assert is_isomorphic(g, disjoint_union(paw, empty_graph(1)))


def test_uep_zero_edges():
    for n in range(6):
        assert uep_witness(n, 0) == empty_graph(n)


def test_uep_range_error():
    with pytest.raises(RangeError):
        uep_witness(4, 7)
    with pytest.raises(RangeError):
        uep_witness(4, -1)
    with pytest.raises(RangeError):
        uep_witness(-1, 0)


def test_min_clique_order_matches_counting():
    # the least p with C(p,2) >= m, counted up one p at a time
    p = 0
    for m in range(64 * 63 // 2 + 1):
        while p * (p - 1) // 2 < m:
            p += 1
        assert _min_clique_order(m) == p, m


def test_uep_checks_the_cap_before_building(monkeypatch):
    # a late check would first build a clique of order 1.4e9
    def refuse(m):
        raise AssertionError("_min_clique_order called")

    monkeypatch.setattr("indfree.constructions._min_clique_order", refuse)
    with pytest.raises(CapacityError):
        uep_witness(2 * 10**9, 10**18)


# k3k2_decompose


def test_decompose_pinned_small_cases():
    assert k3k2_decompose(5, 3) == (1, 0)
    assert k3k2_decompose(4, 2) == (0, 2)
    for n in range(2, 10):
        assert k3k2_decompose(n, 0) == (0, 0)


def test_decompose_exhaustive_against_brute_force():
    t0 = time.time()
    for n in range(2, 41):
        for t in range(0, n - 1):
            x, y = k3k2_decompose(n, t)
            assert x >= 0 and y >= 0
            assert 3 * x + y == t
            assert 3 * x + 2 * y <= n
            assert any(
                3 * bx + (t - 3 * bx) == t and 3 * bx + 2 * (t - 3 * bx) <= n
                for bx in range(t // 3 + 1)
                if t - 3 * bx >= 0
            )
    assert time.time() - t0 < 1.0


def test_decompose_range_errors():
    with pytest.raises(RangeError):
        k3k2_decompose(1, 0)
    with pytest.raises(RangeError):
        k3k2_decompose(5, 4)
    with pytest.raises(RangeError):
        k3k2_decompose(5, -1)


# k3k2_witness


def test_k3k2_witness_anchors():
    g = k3k2_witness(5, 9)
    assert g.edge_count == 9 and g.order == 5
    assert is_isomorphic(g, q_graph(QParams(5, 0, 0, 1)))
    # t = 3 at p = 6 packs as three disjoint edges (the closed form keeps
    # x minimal), one of the two valid shapes for this deletion target
    g = k3k2_witness(6, 12)
    assert is_isomorphic(g, q_graph(QParams(6, 0, 0, 3)))
    for n in range(2, 8):
        assert k3k2_witness(n, binom2(n)) == complete_graph(n)


# split_pack_witness


def test_split_pack_small_anchor(p3_k1, k4_k1):
    g = split_pack_witness(5, 3)
    assert is_isomorphic(g, disjoint_union(complete_graph(3), empty_graph(2)))
    assert contains_induced(g, p3_k1) is None
    assert contains_induced(g, k4_k1) is None


def test_split_pack_top_anchors():
    for n in range(3, 9):
        top = binom2(n)
        assert split_pack_witness(n, top) == complete_graph(n)
        g = split_pack_witness(n, top - 1)
        assert g.edge_count == top - 1
        assert g.order == n


def test_split_pack_star_anchor():
    for n in range(4, 9):
        assert is_isomorphic(split_pack_witness(n, n - 1), star_graph(n - 1))


def test_split_pack_range_error():
    with pytest.raises(RangeError):
        split_pack_witness(2, 1)
    with pytest.raises(RangeError):
        split_pack_witness(5, 11)


def test_split_pack_tiling_is_gapless():
    # the clique-part ranges abut: each ends right before the next begins
    for n in range(3, 41):
        prev_end = -1
        for p in range(n - 2):
            base = binom2(p) + p * (n - p)
            assert base == prev_end + 1
            prev_end = base + (n - p - 2)
        assert prev_end == binom2(n) - 2


# matching_witness


def test_matching_witness_anchors():
    assert matching_witness(6, 3).edge_count == 3
    assert matching_witness(5, 0) == empty_graph(5)
    g = matching_witness(7, 2)
    assert g.order == 7 and g.edge_count == 2
    assert sorted(g.degrees()) == [0, 0, 0, 1, 1, 1, 1]


def test_matching_witness_range_error():
    with pytest.raises(RangeError):
        matching_witness(7, 4)


# exact-count contract across all three general builders


def test_exact_counts_up_to_fourteen():
    for n in range(0, 15):
        for m in range(binom2(n) + 1):
            for build in (uep_witness, k3k2_witness):
                g = build(n, m)
                assert g.order == n and g.edge_count == m, (build.__name__, n, m)
            if n >= 3:
                g = split_pack_witness(n, m)
                assert g.order == n and g.edge_count == m, ("split", n, m)


# the row-built families against edge-list references (tests/oracles.py)


def test_h_graph_matches_edge_list_reference():
    for p in range(13):
        for q in range(max(p, 1)):
            for r in range(3):
                assert h_graph(HParams(p, q, r)) == reference_h_graph(p, q, r), (p, q, r)


def test_q_graph_matches_edge_list_reference():
    for p in range(13):
        for r in range(3):
            for x in range(p // 3 + 1):
                for y in range((p - 3 * x) // 2 + 1):
                    assert q_graph(QParams(p, r, x, y)) == reference_q_graph(p, r, x, y), (p, r, x, y)


def test_s_graph_matches_edge_list_reference():
    for p in range(13):
        for r in range(3):
            if p + r >= 2:
                assert s_graph(SplitParams(p, r)) == reference_s_graph(p, r), (p, r)


def test_families_at_the_order_cap():
    assert h_graph(HParams(62, 60, 2)) == reference_h_graph(62, 60, 2)
    assert q_graph(QParams(64, 0, 20, 2)) == reference_q_graph(64, 0, 20, 2)
    assert s_graph(SplitParams(40, 24)) == reference_s_graph(40, 24)


# sha256 of the newline-joined graph6 of witness(G, n, m) over every
# n <= 20 and m, one pattern per construction, recorded before the
# constructions built rows instead of edge lists
WITNESS_DIGESTS = {
    "claw": ("UEP", "d7891dbe3d1c30d4eb3013df3915fe0de6903a9b1fc630843208f446e4b49adc"),
    "paw": ("K3K2", "bf3baa5c51a8029c5f4a56fb1eff43937a9997dec5904555fa8181bd1bf85a61"),
    "H:4,0,1": ("UEP_COMPLEMENT", "2278906ba3803d62d77aee69eb77bddfb9af2cf590d87f448737dd73c9ccf762"),
    "H:3,1,1": ("K3K2_COMPLEMENT", "90233e29aca804fa78f03e56694878b4b845b6058ee9e54be8519755def15378"),
}


@pytest.mark.parametrize("spec", WITNESS_DIGESTS)
def test_witness_digest_pinned(spec):
    tag, digest = WITNESS_DIGESTS[spec]
    g = parse_graph(spec)
    certs = [witness(g, n, m) for n in range(21) for m in range(binom2(n) + 1)]
    assert {c.construction.value for c in certs} == {tag}
    text = "\n".join(encode_graph6(c.graph) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the newline-joined graph6 of witness(G, n, m) for every n in
# 21..64 and every 7th m from 0, one pattern per construction, recorded
# before the hosts were built from row formulas
WITNESS_DIGESTS_LARGE = {
    "claw": ("UEP", "325cf43b3425176b4734f1bc23ec7fa44ee3ac21ac631f3deeb21500984ee6a3"),
    "paw": ("K3K2", "f7a635b86037121436c4bc932e50a1f43375936393116577bb51a676f64bbad2"),
    "H:4,0,1": ("UEP_COMPLEMENT", "4dc509eb628c28a3cb9d2c42811b00ababac8b8dc15c7753c698e7c7a68a8234"),
    "H:3,1,1": ("K3K2_COMPLEMENT", "b6173d0047f2411305804eb8fe54c6b7b849b0d8c8fdd4046d510b2b779723ea"),
}


@pytest.mark.parametrize("spec", WITNESS_DIGESTS_LARGE)
def test_witness_digest_pinned_to_the_cap(spec):
    tag, digest = WITNESS_DIGESTS_LARGE[spec]
    g = parse_graph(spec)
    certs = [witness(g, n, m) for n in range(21, 65) for m in range(0, binom2(n) + 1, 7)]
    assert {c.construction.value for c in certs} == {tag}
    text = "\n".join(encode_graph6(c.graph) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same digests for the two-family builders over every valid (n, m)
# with n <= 20, recorded with WITNESS_DIGESTS_LARGE
def test_split_pack_witness_digest_pinned():
    graphs = [split_pack_witness(n, m) for n in range(3, 21) for m in range(binom2(n) + 1)]
    text = "\n".join(encode_graph6(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "764e19e90e9e73164f63f29e35b492c501c0dc98ced7701d4fb9bdaf8f5e2f45"
    )


def test_matching_witness_digest_pinned():
    graphs = [matching_witness(n, m) for n in range(21) for m in range(n // 2 + 1)]
    text = "\n".join(encode_graph6(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "52b449afb50d8bb500ed0c577f81c8244b714045b484af7d6abc0b0d2c711f81"
    )


# the complement row formulas against flipping the plain rows

CAP_PARAMS = [HParams(62, 60, 2), QParams(64, 0, 20, 2), QParams(40, 24, 4, 5)]


def small_params():
    for p in range(13):
        for r in range(13 - p):
            for q in range(max(p - 1, 0) + 1):
                yield HParams(p, q, r)
            for x in range(p // 3 + 1):
                for y in range((p - 3 * x) // 2 + 1):
                    yield QParams(p, r, x, y)


@pytest.mark.parametrize("family", [HParams, QParams])
def test_complement_rows_flip_the_plain_rows(family):
    build = _h_rows if family is HParams else _q_rows
    drawn = [params for params in [*small_params(), *CAP_PARAMS] if type(params) is family]
    assert drawn
    for params in drawn:
        assert build(params, True) == _co_rows(build(params, False)), params


# the construction parameters on the certificate rebuild its graph; the
# patterns are those of the witness workloads in perfbench/workloads.py
WITNESS_PATTERNS = [
    *("claw", "path:4", "cycle:4", "path:5", "cycle:5", "5;0-1,0-2,1-2,1-3,2-4", "EFz_"),
    *("paw", "H:4,2,1", "H:5,2,0", "H:5,3,1"),
    *("H:3,0,1", "H:4,0,1", "H:3,0,2", "H:4,1,1", "H:5,1,1"),
    *("H:3,1,1", "H:3,1,2", "H:3,1,3"),
]

COMPLEMENTED = {Construction.UEP_COMPLEMENT, Construction.K3K2_COMPLEMENT}


@pytest.mark.parametrize("spec", WITNESS_PATTERNS)
def test_certificate_params_rebuild_the_witness(spec):
    g = parse_graph(spec)
    for n in range(21):
        for m in range(binom2(n) + 1):
            cert = witness(g, n, m)
            uep = cert.construction in (Construction.UEP, Construction.UEP_COMPLEMENT)
            assert type(cert.params) is (HParams if uep else QParams), (n, m)
            host = (h_graph if uep else q_graph)(cert.params)
            if cert.construction in COMPLEMENTED:
                host = complement(host)
            assert host == cert.graph, (spec, n, m)
