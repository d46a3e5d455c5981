import tracemalloc
from itertools import combinations

import pytest

from indfree import (
    ClassTag,
    Construction,
    DegenerateForbiddenError,
    Graph,
    HParams,
    InfeasibleFamilyError,
    ParameterError,
    RangeError,
    TnfKind,
    canonical_form,
    classify,
    complement,
    complete_graph,
    contains_induced,
    empty_graph,
    enumerate_nonisomorphic,
    h_graph,
    make_graph,
    matching_graph,
    parse_graph,
    path_graph,
    recognize_h,
    recognize_tnf,
    star_graph,
    tnf_infeasible_region,
    turan_max_edges,
    witness,
)
from indfree import classifier
from indfree.iso import _plan


def binom2(n):
    return n * (n - 1) // 2


def clique_minus_edge(k):
    return make_graph(
        k, [(u, v) for u, v in combinations(range(k), 2) if (u, v) != (0, 1)]
    )


# recognize_tnf


def test_recognize_tnf_path3():
    assert recognize_tnf(path_graph(3)) == (TnfKind.CLIQUE_MINUS_EDGE, 3)


def test_recognize_tnf_paw_is_none(paw):
    assert recognize_tnf(paw) is None


def test_recognize_tnf_two_matching_is_none():
    assert recognize_tnf(matching_graph(2)) is None


def test_recognize_tnf_k1_is_none():
    assert recognize_tnf(complete_graph(1)) is None


def test_recognize_tnf_all_four_kinds():
    for k in range(2, 7):
        assert recognize_tnf(complete_graph(k)) == (TnfKind.CLIQUE, k)
        assert recognize_tnf(empty_graph(k)) == (TnfKind.EMPTY, k)
    for k in range(3, 7):
        assert recognize_tnf(clique_minus_edge(k)) == (TnfKind.CLIQUE_MINUS_EDGE, k)
        assert recognize_tnf(make_graph(k, [(0, 1)])) == (TnfKind.EMPTY_PLUS_EDGE, k)


def test_recognize_tnf_relabeling_invariant():
    g = make_graph(4, [(0, 2), (1, 2), (2, 3), (0, 1), (0, 3)])
    assert recognize_tnf(g) == (TnfKind.CLIQUE_MINUS_EDGE, 4)


# recognize_h


def test_recognize_h_paw(paw):
    assert recognize_h(paw) == HParams(4, 2, 0)


def test_recognize_h_claw_is_none(claw):
    assert recognize_h(claw) is None


def test_recognize_h_k3_plus_isolate(k3_k1):
    assert recognize_h(k3_k1) == HParams(3, 0, 1)


def test_recognize_h_canonicalizes_stripped_star_center():
    # q = p-1 leaves the star center isolated, so the canonical parameters
    # drop it into the isolate count
    g = h_graph(HParams(4, 3, 0))
    assert recognize_h(g) == HParams(3, 0, 1)


def test_recognize_h_empty_graph():
    assert recognize_h(empty_graph(4)) == HParams(0, 0, 4)


def test_recognize_h_agrees_with_brute_force_up_to_six():
    h_forms = set()
    for p in range(0, 7):
        for q in range(0, max(p, 1)):
            for r in range(0, 7 - p):
                if 1 <= p + r <= 6:
                    h_forms.add(canonical_form(h_graph(HParams(p, q, r))))
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            got = recognize_h(g)
            assert (got is not None) == (canonical_form(g) in h_forms), g
            if got is not None:
                assert canonical_form(h_graph(got)) == canonical_form(g)


# classify


def test_classify_tnf_precedes_h():
    cls = classify(complete_graph(4))
    assert cls.tag is ClassTag.TNF
    assert cls.tnf_kind is TnfKind.CLIQUE and cls.k == 4
    assert cls.h is None


def test_classify_h_graph(paw):
    cls = classify(paw)
    assert cls.tag is ClassTag.H_GRAPH
    assert cls.h == HParams(4, 2, 0)


def test_classify_general(claw):
    assert classify(claw).tag is ClassTag.GENERAL


def test_verdict_examples(paw, diamond, p3_k1):
    cls = classify(diamond)
    assert cls.tag is ClassTag.TNF
    assert cls.tnf_kind is TnfKind.CLIQUE_MINUS_EDGE and cls.k == 4
    assert classify(paw).tag is not ClassTag.TNF
    assert classify(p3_k1).tag is not ClassTag.TNF


def test_verdict_k1_feasible_by_convention():
    assert classify(complete_graph(1)).tag is not ClassTag.TNF


def test_verdict_complement_consistency():
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert (classify(g).tag is ClassTag.TNF) == (classify(complement(g)).tag is ClassTag.TNF)


# the per-pattern cache


def twin(g):
    """A Graph equal to g that shares no object with it."""
    return Graph(g.order, tuple(list(g.rows)))


def test_classify_runs_once_per_pattern(monkeypatch, paw):
    # equal patterns built apart share one entry, so classify and witness
    # on either recognize the shape once between them
    classify.cache_clear()
    calls = []
    recognize = classifier.recognize_h
    monkeypatch.setattr(classifier, "recognize_h", lambda g: calls.append(g) or recognize(g))
    other = parse_graph("4;0-1,0-2,1-2,0-3")
    assert other == paw and other is not paw
    assert classify(paw) is classify(other)
    witness(paw, 9, 17)
    witness(other, 9, 17, verify=True)
    assert len(calls) == 1
    assert classify.cache_info().misses == 1


def test_warm_calls_match_cold_ones():
    # a cached class or plan gives the class and witness a cold call does
    pairs = [(n, m) for n in (4, 9, 16) for m in (0, n, binom2(n) // 2, binom2(n))]
    for order in range(2, 6):
        for g in enumerate_nonisomorphic(order):
            classify.cache_clear()
            _plan.cache_clear()
            cold = classify(g)
            if cold.tag is ClassTag.TNF:
                assert classify(twin(g)) == cold
                continue
            certs = [witness(g, n, m, verify=True) for n, m in pairs]
            assert classify(twin(g)) == cold
            assert [witness(twin(g), n, m, verify=True) for n, m in pairs] == certs


def test_classify_errors_are_not_cached():
    classify.cache_clear()
    for _ in range(3):
        with pytest.raises(ParameterError):
            classify(parse_graph("path:0"))
    info = classify.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


def test_list_rows_give_what_tuple_rows_give():
    # Graph turns its rows into a tuple, so a graph made by hand with a
    # list of rows hashes like the tuple-row graph and the caches keyed on
    # it or its rows take it
    listed = Graph(4, [14, 5, 3, 1])
    tupled = Graph(4, (14, 5, 3, 1))
    assert type(listed.rows) is tuple
    assert listed == tupled and hash(listed) == hash(tupled)
    hosts = [complete_graph(5), h_graph(HParams(5, 2, 1)), tupled, Graph(5, [30, 5, 3, 1, 1])]

    def cold(g):
        classify.cache_clear()
        _plan.cache_clear()
        return classify(g), [contains_induced(host, g) for host in hosts]

    cls, found = cold(listed)
    assert (cls, found) == cold(tupled)
    assert cls.h == HParams(4, 2, 0)
    assert found[0] is None and None not in found[1:]


# witness dispatch


def test_witness_paw_uses_elimination(paw):
    cert = witness(paw, 5, 9, verify=True)
    assert cert.construction is Construction.K3K2
    assert cert.graph.order == 5 and cert.graph.edge_count == 9
    assert cert.verified


def test_witness_claw_uses_uep(claw):
    for n in range(0, 8):
        for m in range(binom2(n) + 1):
            cert = witness(claw, n, m, verify=True)
            assert cert.construction is Construction.UEP


def test_witness_k3_plus_isolate_uses_complement(k3_k1):
    cert = witness(k3_k1, 6, 11, verify=True)
    assert cert.construction is Construction.UEP_COMPLEMENT
    assert cert.verified


def test_witness_p3_plus_isolate_uses_k3k2_complement(p3_k1):
    cert = witness(p3_k1, 6, 5, verify=True)
    assert cert.construction is Construction.K3K2_COMPLEMENT
    assert cert.verified


def test_witness_rejects_tnf(diamond):
    with pytest.raises(InfeasibleFamilyError) as err:
        witness(diamond, 5, 4)
    assert err.value.kind is TnfKind.CLIQUE_MINUS_EDGE
    assert err.value.k == 4


def test_witness_rejects_single_vertex():
    with pytest.raises(DegenerateForbiddenError):
        witness(complete_graph(1), 5, 4)


def test_witness_rejects_out_of_range(paw):
    with pytest.raises(RangeError):
        witness(paw, 4, 7)
    with pytest.raises(RangeError):
        witness(paw, 4, -1)


def test_witness_unverified_by_default(paw):
    cert = witness(paw, 6, 7)
    assert not cert.verified
    assert contains_induced(cert.graph, paw) is None


def test_witness_with_n_below_pattern_order(paw):
    cert = witness(paw, 2, 1, verify=True)
    assert cert.graph.order == 2 and cert.graph.edge_count == 1


@pytest.mark.parametrize(
    "p, q, r, m",
    [
        (4, 0, 1, 504), (4, 0, 1, 1512),
        (4, 1, 1, 504), (4, 1, 1, 1512),
        (5, 1, 1, 504), (5, 1, 1, 1512),
        (5, 3, 1, 504), (5, 3, 1, 1512),
        (5, 2, 0, 504), (5, 2, 0, 1512),
        (6, 2, 1, 1920),
    ],
)
def test_witness_verify_at_order_64(p, q, r, m):
    # hosts of 64 vertices made of large twin classes, many of them
    # swappable whole: the embedding search must prune twins and whole
    # blocks to finish a miss quickly
    cert = witness(h_graph(HParams(p, q, r)), 64, m, verify=True)
    assert cert.verified
    assert (cert.graph.order, cert.graph.edge_count) == (64, m)


def test_dispatch_covers_all_nontnf_h_shapes():
    # every canonical non-TNF H-graph lands in exactly one dispatch family
    for p in range(0, 7):
        for q in range(0, max(p, 1)):
            for r in range(0, 4):
                g = h_graph(HParams(p, q, r))
                if g.order < 2 or recognize_tnf(g) is not None:
                    continue
                h = recognize_h(g)
                assert h is not None
                rules = [
                    h.q >= 2,
                    h.q == 0 and h.p >= 3 and h.r >= 1,
                    h.q == 1 and h.p >= 4 and h.r >= 1,
                    h.q == 1 and h.p == 3 and h.r >= 1,
                ]
                assert sum(rules) == 1, (p, q, r, h)


# turan_max_edges / tnf_infeasible_region


def test_turan_values():
    assert turan_max_edges(5, 3) == 6
    assert turan_max_edges(6, 3) == 9
    assert turan_max_edges(4, 3) == 4
    assert turan_max_edges(6, 4) == 12
    for n in range(0, 8):
        assert turan_max_edges(n, 2) == 0
        for k in range(n + 1, n + 3):
            if k >= 2:
                assert turan_max_edges(n, k + 1) == binom2(n)


def test_region_clique_exact():
    region, exact = tnf_infeasible_region(TnfKind.CLIQUE, 3, 5)
    assert set(region) == {7, 8, 9, 10}
    assert exact


def test_region_clique_minus_edge():
    region, exact = tnf_infeasible_region(TnfKind.CLIQUE_MINUS_EDGE, 4, 6)
    assert set(region) == {13, 14}
    assert not exact


def test_region_empty_mirrors_clique():
    clique, _ = tnf_infeasible_region(TnfKind.CLIQUE, 3, 6)
    mirror, exact = tnf_infeasible_region(TnfKind.EMPTY, 3, 6)
    assert exact
    assert set(mirror) == {15 - m for m in clique}


def test_region_empty_plus_edge_mirrors_minus_edge():
    minus, _ = tnf_infeasible_region(TnfKind.CLIQUE_MINUS_EDGE, 4, 7)
    plus, _ = tnf_infeasible_region(TnfKind.EMPTY_PLUS_EDGE, 4, 7)
    assert set(plus) == {21 - m for m in minus}


def test_region_pattern_bigger_than_host_is_empty():
    region, _ = tnf_infeasible_region(TnfKind.CLIQUE_MINUS_EDGE, 6, 4)
    assert set(region) == set()


def test_region_memory_does_not_grow_with_its_size():
    tracemalloc.start()
    try:
        region, exact = tnf_infeasible_region(TnfKind.CLIQUE, 3, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (region[0], region[-1], len(region), exact) == (1000001, 1999000, 999000, True)
    assert peak < 1 << 20


def test_region_parameter_errors():
    with pytest.raises(ParameterError):
        tnf_infeasible_region(TnfKind.CLIQUE, 1, 5)
    with pytest.raises(ParameterError):
        turan_max_edges(5, 1)


@pytest.mark.parametrize("kind", list(TnfKind))
def test_region_vertex_count_is_a_range_error(kind):
    # a bad n is a range error, as for witness and feasible_pairs; a bad
    # k is still a parameter error, and is reported first
    for n in (0, -1):
        with pytest.raises(RangeError, match=f"vertex count must be at least 1, got {n}"):
            tnf_infeasible_region(kind, 3, n)
        with pytest.raises(ParameterError):
            tnf_infeasible_region(kind, 1, n)
