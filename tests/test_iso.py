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
    induced_subgraph,
    is_isomorphic,
    make_graph,
    matching_graph,
    parse_graph,
    path_graph,
    star_graph,
    witness,
)
from indfree import iso
from indfree.iso import _aut_generators, _search
from oracles import (
    apply_perm,
    brute_automorphisms,
    brute_contains_induced,
    brute_is_isomorphic,
    generated_group,
    reference_automorphisms,
    reference_canonical_form,
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
                group = generated_group(_aut_generators(h.rows, _search(h.rows)), n)
                assert group == brute_automorphisms(h), h


def test_automorphisms_match_reference_on_every_class_on_7_vertices():
    for g in enumerate_nonisomorphic(7):
        perm = list(range(7))
        RNG.shuffle(perm)
        for h in (g, apply_perm(g, tuple(perm))):
            group = generated_group(_aut_generators(h.rows, _search(h.rows)), 7)
            assert group == set(reference_automorphisms(h)), h


def test_canonical_form_matches_reference_on_every_class_up_to_7_vertices():
    rng = random.Random(20261018)
    for n in range(8):
        for g in enumerate_nonisomorphic(n):
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                h = apply_perm(g, tuple(perm))
                assert canonical_form(h) == reference_canonical_form(h) == g, h


@pytest.mark.parametrize("copies, k", [(4, 4), (5, 3)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_least_code_nodes_on_relabelled_clique_unions(monkeypatch, copies, k, seed):
    # 4K4 and 5K3: one cell whose twin classes, the cliques, swap whole.
    # A node that recursed into every candidate whose code was at most
    # best explored a non-least candidate's whole subtree before best
    # dropped: 8,703-59,607 nodes on 4K4 and 2,999-15,841 on 5K3 under
    # these labellings, where recursing into the least codes only takes
    # 353 and 1,526
    g = complete_graph(k)
    for _ in range(copies - 1):
        g = disjoint_union(g, complete_graph(k))
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    nodes = []
    walk = iso._least_code
    monkeypatch.setattr(iso, "_least_code", lambda *a: nodes.append(1) or walk(*a))
    form = canonical_form(induced_subgraph(g, perm))
    assert len(nodes) <= 2000
    assert form == canonical_form(g)


@pytest.mark.parametrize("n, built, relabelled", [(12, 9925, 9958), (14, 81723, 82202)])
def test_least_code_nodes_on_cycles(monkeypatch, n, built, relabelled):
    # a cycle is one cell with no twins, and every vertex ties at the
    # first slot; the walk's nodes as cycle_graph labels it and under
    # the relabelling random.Random(1) shuffles, counted when each node
    # computed every candidate's code
    g = cycle_graph(n)
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    walk = iso._least_code
    for h, most in ((g, built), (induced_subgraph(g, perm), relabelled)):
        nodes = []
        monkeypatch.setattr(iso, "_least_code", lambda *a: nodes.append(1) or walk(*a))
        form = canonical_form(h)
        assert len(nodes) <= most
        assert form == canonical_form(g)


@pytest.mark.parametrize(
    "spec, n, m, most",
    [
        ("H:6,2,1", 64, 1920, 15),
        ("H:5,2,0", 64, 1512, 4),
        ("paw", 64, 1500, 7),
        ("H:20,3,5", 64, 1016, 129048),
        ("H:20,3,5", 64, 1016, 126),
        ("H:30,5,10", 64, 1016, 177),
        ("S:25,3", 64, 572, 243),
        ("H:26,2,16", 64, 619, 179),
        ("H:40,2,0", 64, 1016, 179),
    ],
)
def test_extend_nodes_on_witness_hosts(monkeypatch, spec, n, m, most):
    # the embedding search's nodes when witness re-checks its host, as
    # counted when the twin and partner masks were built on first need;
    # skip masks built before the search prune at least as much, and
    # first candidate sets cut by degree can only cut more (H:6,2,1
    # takes 5 with them).
    # H:20,3,5's clique vertices outside the star are twins in the
    # pattern. The search tried them in every order, 129,048 nodes, until
    # it placed each pattern twin class in increasing order, which left
    # 126. The last four took 5,051,650, 28,354,104, 10,430,315 and
    # 7,794,929 before that; their bounds are the counts with the twin
    # order
    nodes = []
    walk = iso._extend
    monkeypatch.setattr(iso, "_extend", lambda *a: nodes.append(1) or walk(*a))
    witness(parse_graph(spec), n, m, verify=True)
    assert len(nodes) <= most


def test_hand_made_graphs_above_the_cap():
    # Graph takes rows as they come, so it can have more than the 64
    # vertices make_graph allows; the bit tables must not drop the rest
    k6 = [sum(1 << v for v in range(64, 70) if v != u) for u in range(64, 70)]
    emb = contains_induced(Graph(70, (0,) * 64 + tuple(k6)), complete_graph(3))
    assert emb.map == (64, 65, 66)
    two_c4 = disjoint_union(cycle_graph(4), cycle_graph(4))
    g = Graph(70, (0,) * 62 + tuple([r << 62 for r in two_c4.rows]))
    flipped = apply_perm(g, tuple(reversed(range(70))))
    assert canonical_form(g) == canonical_form(flipped)
    c8 = Graph(70, (0,) * 62 + tuple([r << 62 for r in cycle_graph(8).rows]))
    assert canonical_form(g) != canonical_form(c8)


def test_contains_induced_degree_miss_builds_no_index(monkeypatch, claw):
    # a leaf of the claw needs two non-neighbours, which K10's vertices
    # lack and K10 minus a perfect matching's have one short of; its
    # centre needs three neighbours, one more than C10's have. Each call
    # ends before the skip index is built
    calls = []
    build = iso._skip_index
    monkeypatch.setattr(iso, "_skip_index", lambda *a: calls.append(1) or build(*a))
    for host in (complete_graph(10), complement(matching_graph(5)), cycle_graph(10)):
        assert contains_induced(host, claw) is None
    assert calls == []
    assert contains_induced(complete_graph(10), complete_graph(3)) is not None
    assert calls == [1]


def test_plan_is_all_tuples_and_left_unchanged():
    # every later call on the pattern shares _plan's result, so it holds
    # only tuples, which no search can change
    iso._plan.cache_clear()
    paw = parse_graph("paw")
    assert iso._plan(paw.rows) == (
        (0, 1, 2, 3),
        (3, 2, 2, 1),
        ((0, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0)),
        (-1, -1, 1, -1),
    )
    hosts = [complete_graph(8), cycle_graph(9), complement(matching_graph(5))]
    for spec in ("paw", "claw", "H:5,2,0", "cycle:5", "path:4"):
        g = parse_graph(spec)
        plan = iso._plan(g.rows)
        assert type(plan) is tuple and all(type(part) is tuple for part in plan)
        assert all(type(row) is tuple for row in plan[2])
        for host in hosts + [witness(g, 12, 33).graph]:
            contains_induced(host, g)
        assert iso._plan(g.rows) is plan
        assert plan == iso._plan.__wrapped__(g.rows)


def test_warm_plans_give_cold_embeddings():
    hosts = [random_graph(RNG.randrange(4, 13)) for _ in range(30)]
    for g in enumerate_nonisomorphic(4):
        iso._plan.cache_clear()
        cold = [contains_induced(h, g) for h in hosts]
        again = Graph(g.order, tuple(list(g.rows)))
        assert [contains_induced(h, again) for h in hosts] == cold
        assert iso._plan.cache_info().misses == 1


def test_canonical_idempotent():
    for _ in range(40):
        g = random_graph(RNG.randrange(0, 9))
        c = canonical_form(g)
        assert canonical_form(c) == c


def test_canonical_of_complete_is_complete():
    # from K0 and K1, which take the discrete path like any other graph
    for n in range(8):
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
