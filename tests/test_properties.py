from collections import Counter
from itertools import combinations
from math import factorial, prod
from unittest.mock import patch

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from indfree import (
    FamilySpec,
    Graph,
    HParams,
    canonical_form,
    complement,
    contains_induced,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    feasible_pairs,
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
from indfree import iso
from indfree.iso import (
    _INF,
    _aut_generators,
    _cells,
    _least_code,
    _search,
    _skip_index,
    _twin_masks,
)
from oracles import (
    apply_perm,
    brute_contains_induced,
    generated_group,
    reference_automorphisms,
    reference_canonical_form,
    reference_feasible_pairs,
    reference_first_embedding,
    reference_induced_subgraph,
    reference_least_code,
    reference_one_path,
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
def twin_blowups(draw, max_base=5, max_class=4):
    """Graphs whose every base vertex, of at most max_base, becomes a
    class of 1 to max_class twins, all adjacent (closed twins) or none
    (open twins)."""
    base = draw(graphs(min_order=1, max_order=max_base))
    sizes = [draw(st.integers(1, max_class)) for _ in range(base.order)]
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


@st.composite
def large_graphs(draw):
    """Graphs on 14-64 vertices, each pair an edge with one of a few
    probabilities between 1/32 and 31/32."""
    n = draw(st.integers(14, 64))
    p = draw(st.sampled_from([1, 2, 4, 8, 16, 24, 31]))
    rng = draw(st.randoms(use_true_random=False))
    return make_graph(n, [e for e in combinations(range(n), 2) if rng.randrange(32) < p])


@st.composite
def relabelled_circulants(draw):
    """A circulant on 3-64 vertices, v joined to v +- j for each of 1-3
    jumps j (a cycle for the one jump 1), relabelled at random, with one
    vertex pair flipped or none. Unflipped, it is vertex-transitive, so
    its coloring is one cell; a flip makes the refinement split by
    distance from the flipped pair, over many rounds."""
    n = draw(st.integers(3, 64))
    jumps = draw(st.one_of(st.just({1}), st.sets(st.integers(1, n // 2), min_size=1, max_size=3)))
    g = make_graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])
    g = apply_perm(g, draw(st.permutations(range(n))))
    if not draw(st.booleans()):
        return g
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(n, tuple(rows))


@settings(max_examples=150, deadline=None)
@given(st.one_of(large_graphs(), relabelled_circulants()))
def test_wl_colors_matches_reference_up_to_64_vertices(g):
    # the splitter rule of iso._cells claims the reference's ranks at
    # every order the package takes
    assert wl_colors(g) == reference_wl_colors(g)


@given(st.one_of(graphs(), twin_blowups(), block_blowups(), perturbed_h_graphs()))
def test_recognize_h_matches_reference(g):
    assert recognize_h(g) == reference_recognize_h(g)


@given(graphs(max_order=64), st.sampled_from(("empty", "subset", "permutation")), st.data())
def test_induced_subgraph_matches_reference(g, way, data):
    n = g.order
    perm = data.draw(st.permutations(range(n)))
    if way == "empty":
        vs = []
    elif way == "subset":
        vs = perm[: data.draw(st.integers(0, n))]
    else:
        vs = perm
    sub = induced_subgraph(g, vs)
    assert sub == reference_induced_subgraph(g, vs)
    if way == "permutation":
        assert sub == apply_perm(g, vs)


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


@given(
    st.one_of(graphs(), twin_blowups(), block_blowups(max_order=12)),
    st.one_of(graphs(max_order=5), twin_blowups(max_base=3, max_class=3)),
)
@settings(max_examples=300, deadline=None)
def test_contains_induced_returns_the_first_embedding(host, pattern):
    # the forward checking, the twin and block skips and the increasing
    # order of each pattern twin class never cut the path to the
    # lexicographically least embedding, so the search returns the one
    # plain backtracking finds first
    emb = contains_induced(host, pattern)
    assert (None if emb is None else emb.map) == reference_first_embedding(host, pattern)


@given(
    graphs(min_order=1, max_order=5),
    graphs(min_order=1, max_order=5),
    st.lists(
        st.tuples(st.one_of(graphs(), twin_blowups(), block_blowups(max_order=12)), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_contains_induced_reuses_pattern_plans(a, b, checks):
    # two patterns against many hosts, interleaved, each check through an
    # equal pattern object of its own: the searches read cached plans
    # back and forth and still return the first plain-backtracking copy
    iso._plan.cache_clear()
    for host, second in checks:
        g = b if second else a
        pattern = Graph(g.order, tuple(list(g.rows)))
        emb = contains_induced(host, pattern)
        assert (None if emb is None else emb.map) == reference_first_embedding(host, pattern)
    assert iso._plan.cache_info().misses <= 2


@given(st.one_of(twin_blowups(), block_blowups(max_order=10)))
@settings(max_examples=200, deadline=None)
def test_automorphisms_match_reference(g):
    # automorphisms keep wl_colors, so the product of the factorials of
    # the cell sizes bounds |Aut(g)|; bigger groups take seconds to list
    assume(prod(map(factorial, Counter(wl_colors(g)).values())) <= 5040)
    group = generated_group(_aut_generators(g.rows, _search(g.rows)), g.order)
    assert group == set(reference_automorphisms(g))


@given(st.one_of(graphs(max_order=16), twin_blowups(), block_blowups()))
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_reference(g):
    # the reference tries every ordering of each wl_colors cell, as many
    # as the product of the factorials of the cell sizes
    assume(prod(map(factorial, Counter(wl_colors(g)).values())) <= 5040)
    assert canonical_form(g) == reference_canonical_form(g)


@given(st.one_of(graphs(max_order=16), twin_blowups(), block_blowups()))
@settings(max_examples=300, deadline=None)
def test_search_answers_as_the_full_walk_does(g):
    # _search skips the walk where every cell is one vertex or a set of
    # twins; the walk itself must then take the one path _search returns.
    # The walk tries one vertex of each twin class at a slot, so it has
    # at most as many leaves as each cell has orders of its twin classes'
    # labels, the multinomial of their sizes
    cells, twins = _cells(g.rows), _twin_masks(g.rows)
    paths = 1
    for c in cells:
        sizes = Counter(twins[v] & c for v in range(g.order) if c >> v & 1).values()
        paths *= factorial(sum(sizes)) // prod(map(factorial, sizes))
    assume(paths <= 5040)
    slots = [c for c in cells for _ in range(c.bit_count())]
    leaves = []
    _least_code(0, 0, slots, g.rows, twins, [_INF] * g.order, [], leaves)
    assert _search(g.rows) == leaves


@st.composite
def relabelled_cycles(draw, min_order=3, max_order=12):
    n = draw(st.integers(min_order, max_order))
    return apply_perm(cycle_graph(n), tuple(draw(st.permutations(range(n)))))


@given(st.one_of(graphs(), twin_blowups(), block_blowups(max_order=12), relabelled_cycles()))
@settings(deadline=None)
def test_search_returns_the_reference_walks_leaves(g):
    # the walk narrows each slot's candidates once per placed vertex
    # instead of computing every candidate's code; it must reach the
    # same leaves in the same order, since _aut_generators reads them
    cells, twins = _cells(g.rows), _twin_masks(g.rows)
    slots = [c for c in cells for _ in range(c.bit_count())]
    leaves = []
    reference_least_code(0, 0, slots, g.rows, twins, [_INF] * g.order, [], leaves)
    assert _search(g.rows) == leaves


@given(st.one_of(graphs(), twin_blowups(), block_blowups()))
@settings(max_examples=300, deadline=None)
def test_search_takes_one_path_exactly_where_the_twin_table_says(g):
    # with the walk stubbed out, _search answers only from its per-cell
    # row test: the one ordering, each cell in label order, exactly when
    # the coloring is discrete or every cell is a set of twins by the
    # twin table, and nothing otherwise
    cells = _cells(g.rows)
    one_path = len(cells) == g.order or reference_one_path(g.rows)
    with patch.object(iso, "_least_code", lambda *args: None):
        leaves = _search(g.rows)
    assert leaves == ([tuple(v for c in cells for v in members(c))] if one_path else [])


@given(st.lists(graphs(min_order=1, max_order=6), min_size=1, max_size=4), st.integers(0, 7))
@settings(deadline=None)
def test_feasible_pairs_matches_reference(forbidden, n):
    family = FamilySpec(forbidden)
    assert feasible_pairs(family, n) == reference_feasible_pairs(family, n)


def members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@given(block_blowups())
def test_partner_blocks_swap_is_automorphism(g):
    # the skip index over every vertex: v's twin class and the blocks
    # partnered with it, read off its open and closed rows
    twins = _twin_masks(g.rows)
    skip = _skip_index(g.rows, (1 << g.order) - 1)
    for v in range(g.order):
        row = g.rows[v]
        found = skip[row] | skip[row | 1 << v]
        assert found & twins[v] == twins[v]
        own = members(twins[v])
        for w in members(found & ~twins[v]):
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
