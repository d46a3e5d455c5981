from collections import Counter
from itertools import combinations
from math import factorial, prod

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from indfree import (
    Graph,
    HParams,
    canonical_form,
    complement,
    contains_induced,
    decode_graph6,
    encode_graph6,
    h_graph,
    induced_subgraph,
    is_isomorphic,
    k3k2_witness,
    make_graph,
    matching_graph,
    path_graph,
    recognize_h,
    recognize_tnf,
    star_graph,
    uep_witness,
    witness,
    wl_colors,
)
from indfree.iso import _automorphisms, _partner_blocks, _twin_masks
from oracles import (
    apply_perm,
    brute_contains_induced,
    reference_automorphisms,
    reference_recognize_h,
    reference_wl_colors,
)


@st.composite
def graphs(draw, min_order=0, max_order=8):
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    return make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def twin_blowups(draw):
    """Hosts whose every base vertex becomes a class of 1-4 twins, all
    adjacent (closed twins) or none (open twins)."""
    base = draw(graphs(min_order=1, max_order=5))
    sizes = [draw(st.integers(1, 4)) for _ in range(base.order)]
    cliques = [draw(st.booleans()) for _ in range(base.order)]
    owner = [v for v, k in enumerate(sizes) for _ in range(k)]
    edges = [
        (a, b)
        for a, b in combinations(range(len(owner)), 2)
        if (base.has_edge(owner[a], owner[b]) if owner[a] != owner[b] else cliques[owner[a]])
    ]
    return make_graph(len(owner), edges)


@st.composite
def block_blowups(draw, max_order=24):
    """Hosts whose twin classes can be swapped whole.

    A random quotient graph has every vertex replaced by a clique or an
    independent set of 1-3 vertices, then the host is relabelled at
    random. Quotient vertices come in groups of 1-3 open or closed twins
    sharing block size and kind, so swappable blocks are common; hosts
    beyond max_order vertices lose their last vertices.
    """
    base = draw(graphs(min_order=1, max_order=4))
    n = base.order
    size = [draw(st.integers(1, 3)) for _ in range(n)]
    copies = [draw(st.integers(1, 3)) for _ in range(n)]
    clique = [draw(st.booleans()) for _ in range(n)]
    closed = [draw(st.booleans()) for _ in range(n)]
    quotient = [v for v in range(n) for _ in range(copies[v])]
    verts = [(q, v) for q, v in enumerate(quotient) for _ in range(size[v])][:max_order]

    def adjacent(x, y):
        (qx, a), (qy, b) = x, y
        if qx == qy:
            return clique[a]
        return closed[a] if a == b else base.has_edge(a, b)

    perm = draw(st.permutations(range(len(verts))))
    return make_graph(
        len(verts),
        [
            (perm[x], perm[y])
            for x, y in combinations(range(len(verts)), 2)
            if adjacent(verts[x], verts[y])
        ],
    )


@st.composite
def perturbed_h_graphs(draw):
    """H(p,q,r) of order up to 64, relabelled at random, with one random
    vertex pair flipped or none."""
    p = draw(st.integers(0, 64))
    q = draw(st.integers(0, max(p - 1, 0)))
    r = draw(st.integers(0, 64 - p))
    n = p + r
    g = apply_perm(h_graph(HParams(p, q, r)), draw(st.permutations(range(n))))
    if n < 2 or not draw(st.booleans()):
        return g
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(n, tuple(rows))


@st.composite
def graph_with_permutation(draw):
    g = draw(graphs(min_order=1))
    perm = draw(st.permutations(range(g.order)))
    return g, tuple(perm)


@st.composite
def pair_requests(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, n * (n - 1) // 2))
    return n, m


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_order=13), twin_blowups(), block_blowups()))
def test_wl_colors_matches_reference(g):
    assert wl_colors(g) == reference_wl_colors(g)


@given(st.one_of(graphs(), twin_blowups(), block_blowups(), perturbed_h_graphs()))
def test_recognize_h_matches_reference(g):
    assert recognize_h(g) == reference_recognize_h(g)


@given(graphs())
def test_complement_involution(g):
    co = complement(g)
    assert complement(co) == g
    assert co.edge_count + g.edge_count == g.order * (g.order - 1) // 2


@given(graph_with_permutation())
def test_canonical_form_is_relabeling_invariant(gp):
    g, perm = gp
    assert canonical_form(g) == canonical_form(apply_perm(g, perm))


@given(graphs())
def test_canonical_form_idempotent(g):
    c = canonical_form(g)
    assert canonical_form(c) == c
    assert c.order == g.order and c.edge_count == g.edge_count


@given(graph_with_permutation())
def test_relabeled_graphs_are_isomorphic(gp):
    g, perm = gp
    assert is_isomorphic(g, apply_perm(g, perm))


@given(graphs(max_order=20))
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@given(graphs(min_order=1), graphs(min_order=1, max_order=4))
@settings(deadline=None)
def test_embedding_satisfies_induced_condition(host, pattern):
    emb = contains_induced(host, pattern)
    if emb is None:
        return
    assert len(set(emb.map)) == pattern.order
    for i, j in combinations(range(pattern.order), 2):
        assert pattern.has_edge(i, j) == host.has_edge(emb.map[i], emb.map[j])


@given(block_blowups(max_order=12), graphs(min_order=3, max_order=4))
@settings(max_examples=200, deadline=None)
def test_contains_induced_on_block_hosts_matches_brute_force(host, pattern):
    emb = contains_induced(host, pattern)
    assert (emb is not None) == brute_contains_induced(host, pattern)
    if emb is not None:
        assert len(set(emb.map)) == pattern.order
        for i, j in combinations(range(pattern.order), 2):
            assert pattern.has_edge(i, j) == host.has_edge(emb.map[i], emb.map[j])


@given(st.one_of(twin_blowups(), block_blowups(max_order=10)))
@settings(max_examples=200, deadline=None)
def test_automorphisms_match_reference(g):
    # automorphisms keep wl_colors, so the product of the factorials of
    # the cell sizes bounds |Aut(g)|; bigger groups take seconds to list
    assume(prod(map(factorial, Counter(wl_colors(g)).values())) <= 5040)
    auts = _automorphisms(g)
    assert len(set(auts)) == len(auts)
    assert set(auts) == set(reference_automorphisms(g))


def members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@given(block_blowups())
def test_partner_blocks_swap_is_automorphism(g):
    twins = _twin_masks(g.rows)
    partners = _partner_blocks(g.rows, twins)
    for v in range(g.order):
        own = members(twins[v])
        for w in members(partners.get(twins[v], 0)):
            other = members(twins[w])
            assert len(other) == len(own) and not set(other) & set(own)
            # exchange the two blocks vertex by vertex, fixing the rest
            perm = list(range(g.order))
            for x, y in zip(own, other):
                perm[x], perm[y] = y, x
            assert apply_perm(g, perm) == g
            # adjacency inside a block differs from adjacency across
            # partners, or the two would be one block
            assert g.has_edge(own[0], own[1]) != g.has_edge(own[0], other[0])


@given(graphs(min_order=1, max_order=7), graphs(min_order=1, max_order=4))
@settings(deadline=None)
def test_complement_duality(host, pattern):
    direct = contains_induced(host, pattern) is not None
    mirrored = contains_induced(complement(host), complement(pattern)) is not None
    assert direct == mirrored


@given(graphs(min_order=1, max_order=7), st.data())
@settings(deadline=None)
def test_induced_transitivity(outer, data):
    mid_vs = data.draw(
        st.lists(
            st.integers(0, outer.order - 1),
            min_size=1,
            max_size=outer.order,
            unique=True,
        )
    )
    mid = induced_subgraph(outer, mid_vs)
    inner_vs = data.draw(
        st.lists(
            st.integers(0, mid.order - 1), min_size=1, max_size=mid.order, unique=True
        )
    )
    inner = induced_subgraph(mid, inner_vs)
    assert contains_induced(outer, mid) is not None
    assert contains_induced(mid, inner) is not None
    assert contains_induced(outer, inner) is not None


@given(pair_requests(max_n=12))
def test_uep_witness_exact_counts_and_freeness(nm):
    n, m = nm
    g = uep_witness(n, m)
    assert g.order == n and g.edge_count == m
    assert contains_induced(g, star_graph(3)) is None
    assert contains_induced(g, matching_graph(2)) is None
    assert contains_induced(g, path_graph(4)) is None


@given(pair_requests(max_n=12))
def test_k3k2_witness_exact_counts(nm):
    n, m = nm
    g = k3k2_witness(n, m)
    assert g.order == n and g.edge_count == m


@given(graphs(min_order=2, max_order=5), pair_requests(max_n=8))
@settings(deadline=None)
def test_dispatcher_totality_on_random_forbidden(forbidden, nm):
    if recognize_tnf(forbidden) is not None:
        return
    n, m = nm
    cert = witness(forbidden, n, m, verify=True)
    assert cert.verified
    assert cert.graph.order == n and cert.graph.edge_count == m
