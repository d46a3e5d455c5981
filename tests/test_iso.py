import gc
import random
from itertools import combinations

import pytest

from indfree import (
    Graph,
    canonical_form,
    complement,
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    h_graph,
    HParams,
    is_isomorphic,
    make_graph,
    path_graph,
    star_graph,
)
from indfree.iso import _automorphisms
from oracles import (
    apply_perm,
    brute_automorphisms,
    brute_contains_induced,
    brute_is_isomorphic,
    reference_automorphisms,
)

RNG = random.Random(20240901)


def random_graph(n: int, p: float = 0.5) -> Graph:
    return make_graph(n, [e for e in combinations(range(n), 2) if RNG.random() < p])


def test_canonical_invariant_under_relabeling():
    for _ in range(80):
        n = RNG.randrange(1, 9)
        g = random_graph(n)
        perm = list(range(n))
        RNG.shuffle(perm)
        assert canonical_form(g) == canonical_form(apply_perm(g, tuple(perm)))


def test_automorphisms_match_brute_force():
    # every class on at most 6 vertices, as enumerated and relabelled
    for n in range(7):
        for g in enumerate_nonisomorphic(n):
            perm = list(range(n))
            RNG.shuffle(perm)
            for h in (g, apply_perm(g, tuple(perm))):
                auts = _automorphisms(h)
                assert len(set(auts)) == len(auts)
                assert set(auts) == brute_automorphisms(h), h


def test_automorphisms_match_reference_on_every_class_on_7_vertices():
    for g in enumerate_nonisomorphic(7):
        perm = list(range(7))
        RNG.shuffle(perm)
        for h in (g, apply_perm(g, tuple(perm))):
            auts = _automorphisms(h)
            assert len(set(auts)) == len(auts)
            assert set(auts) == set(reference_automorphisms(h)), h


def test_canonical_idempotent():
    for _ in range(40):
        g = random_graph(RNG.randrange(0, 9))
        c = canonical_form(g)
        assert canonical_form(c) == c


def test_canonical_of_complete_is_complete():
    for n in range(1, 8):
        assert canonical_form(complete_graph(n)) == complete_graph(n)


def test_canonical_separates_classes_small():
    # all labeled graphs on 4 vertices fall into exactly 11 classes
    pairs = list(combinations(range(4), 2))
    forms = set()
    for code in range(1 << 6):
        g = make_graph(4, [p for i, p in enumerate(pairs) if code >> i & 1])
        forms.add(canonical_form(g))
    assert len(forms) == 11
    assert len({canonical_form(f) for f in forms}) == 11


def test_is_isomorphic_matches_brute_force():
    for _ in range(120):
        n = RNG.randrange(1, 7)
        a = random_graph(n)
        b = apply_perm(a, tuple(RNG.sample(range(n), n))) if RNG.random() < 0.5 else random_graph(n)
        assert is_isomorphic(a, b) == brute_is_isomorphic(a, b)


def test_is_isomorphic_examples(paw):
    assert is_isomorphic(paw, h_graph(HParams(4, 2, 0)))
    assert not is_isomorphic(
        disjoint_union(complete_graph(3), empty_graph(1)), star_graph(3)
    )
    assert is_isomorphic(
        disjoint_union(path_graph(3), empty_graph(1)), complement(paw)
    )


def test_contains_induced_matches_brute_force():
    for _ in range(150):
        host = random_graph(RNG.randrange(1, 8))
        pattern = random_graph(RNG.randrange(1, 5))
        got = contains_induced(host, pattern)
        assert (got is not None) == brute_contains_induced(host, pattern)


def test_embedding_is_induced():
    for _ in range(100):
        host = random_graph(RNG.randrange(1, 9))
        pattern = random_graph(RNG.randrange(1, 5))
        emb = contains_induced(host, pattern)
        if emb is None:
            continue
        assert len(set(emb.map)) == pattern.order
        for i in range(pattern.order):
            for j in range(i + 1, pattern.order):
                assert pattern.has_edge(i, j) == host.has_edge(emb.map[i], emb.map[j])


def test_contains_induced_examples(diamond):
    k5_minus = make_graph(
        5, [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (0, 1)]
    )
    assert contains_induced(k5_minus, diamond) is not None
    for n in range(1, 7):
        assert contains_induced(make_graph(n, []), complete_graph(1)) is not None
    for n in range(3, 8):
        for k in range(3, 6):
            pat = make_graph(
                k, [(u, v) for u, v in combinations(range(k), 2) if (u, v) != (0, 1)]
            )
            assert contains_induced(complete_graph(n), pat) is None


def test_pattern_larger_than_host():
    assert contains_induced(complete_graph(3), complete_graph(4)) is None


def test_empty_pattern_embeds_vacuously():
    assert contains_induced(complete_graph(3), Graph(0, ())) is not None


def test_self_complementary_graphs_differ_from_cycle():
    # C_5 is self-complementary; canonical forms of it and its complement agree
    c5 = cycle_graph(5)
    assert is_isomorphic(c5, complement(c5))


def test_regular_nonisomorphic_pair():
    # two 3-regular graphs on 6 vertices: K_3,3 and the prism; same degree
    # sequence, different triangle structure
    k33 = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(k33, prism)
    assert contains_induced(k33, complete_graph(3)) is None
    assert contains_induced(prism, complete_graph(3)) is not None


def test_searches_leave_no_cyclic_garbage():
    # the search state must be freed on return, not left to the cyclic GC
    host = random_graph(12)
    gc.collect()
    gc.disable()
    try:
        for pattern in (complete_graph(4), path_graph(4), cycle_graph(5)):
            contains_induced(host, pattern)
            canonical_form(disjoint_union(host, pattern))
        assert gc.collect() == 0
    finally:
        gc.enable()
