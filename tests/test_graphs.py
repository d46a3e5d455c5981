import pytest

from indfree import (
    CapacityError,
    Graph,
    HParams,
    QParams,
    SplitParams,
    ValidationError,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    decode_graph6_list,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    h_graph,
    induced_subgraph,
    join,
    k3k2_witness,
    make_graph,
    matching_graph,
    matching_witness,
    parse_graph,
    path_graph,
    q_graph,
    s_graph,
    split_pack_witness,
    star_graph,
    uep_witness,
)


def test_make_graph_basic():
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.order == 3
    assert k3.edge_count == 3
    assert k3.has_edge(0, 2) and k3.has_edge(2, 0)


def test_make_graph_collapses_duplicates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_make_graph_rejects_loop():
    with pytest.raises(ValidationError):
        make_graph(3, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValidationError):
        make_graph(2, [(-1, 0)])


def test_make_graph_rejects_oversize():
    with pytest.raises(CapacityError):
        make_graph(65, [])


def test_rows_symmetric_zero_diagonal():
    g = make_graph(5, [(0, 1), (2, 4), (1, 3)])
    for v in range(5):
        assert not g.rows[v] >> v & 1
        for u in range(5):
            assert (g.rows[v] >> u & 1) == (g.rows[u] >> v & 1)


def test_complement_involution_and_count():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    co = complement(g)
    assert co.edge_count == 10 - 3
    assert complement(co) == g


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(empty_graph(5)) == complete_graph(5)


def test_disjoint_union_counts():
    g = disjoint_union(complete_graph(3), empty_graph(1))
    assert g.order == 4
    assert g.edge_count == 3
    assert g.degree(3) == 0
    two_matchings = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_matchings == matching_graph(2)


def test_join_counts():
    s23 = join(complete_graph(2), empty_graph(3))
    assert s23.order == 5
    assert s23.edge_count == 1 + 0 + 6
    assert join(empty_graph(0), complete_graph(4)) == complete_graph(4)


def test_join_makes_claw():
    assert join(complete_graph(1), empty_graph(3)) == star_graph(3)


def test_induced_subgraph_keeps_given_order():
    g = path_graph(4)
    sub = induced_subgraph(g, [3, 2, 1])
    assert sub.order == 3
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and not sub.has_edge(0, 2)


def test_induced_subgraph_rejects_bad_vertices():
    # a repeated vertex once gave rows that were not symmetric, and -1
    # silently meant the last vertex
    with pytest.raises(ValidationError, match="vertex 1 repeated"):
        induced_subgraph(path_graph(3), [0, 1, 1])
    with pytest.raises(ValidationError, match=r"vertex -1 outside \[0, 3\)"):
        induced_subgraph(path_graph(3), [0, -1])
    with pytest.raises(ValidationError, match=r"vertex 3 outside \[0, 3\)"):
        induced_subgraph(path_graph(3), [3])


def test_relabel_reverses():
    # induced_subgraph on a permutation of all vertices relabels: new
    # vertex i is old vertex perm[i]
    star = star_graph(2)
    assert star.degree(0) == 2
    moved = induced_subgraph(star, (1, 0, 2))
    assert moved.degree(1) == 2 and moved.degree(0) == 1
    assert induced_subgraph(path_graph(3), (2, 1, 0)) == path_graph(3)


def test_builders():
    assert complete_graph(4).edge_count == 6
    assert empty_graph(4).edge_count == 0
    assert path_graph(4).edge_count == 3
    assert cycle_graph(4).edge_count == 4
    assert star_graph(3).degree(0) == 3
    assert matching_graph(3).order == 6
    assert matching_graph(3).edge_count == 3
    with pytest.raises(ValidationError):
        cycle_graph(2)


def test_edges_iteration():
    g = make_graph(4, [(0, 1), (2, 3), (1, 3)])
    assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 3)]
    assert sorted(g.neighbors(1)) == [0, 3]


def test_every_built_graph_has_tuple_rows_and_hashes():
    # classify and contains_induced cache on graphs and their rows, so
    # every Graph the package builds must have tuple rows and hash
    base = path_graph(4)
    specs = [
        "claw", "paw", "diamond", "complete:4", "empty:3", "path:5", "cycle:5",
        "star:3", "matching:2", "H:5,2,1", "S:3,2", "Q:7,1,1,1", "4;0-1,1-2", "D??",
    ]
    built = [
        make_graph(3, [(0, 1)]),
        complement(base),
        join(base, star_graph(2)),
        disjoint_union(base, empty_graph(2)),
        induced_subgraph(base, [2, 0]),
        decode_graph6("D??"),
        *decode_graph6_list("D??\nC~\n"),
        *map(parse_graph, specs),
        complete_graph(4),
        empty_graph(3),
        path_graph(5),
        cycle_graph(5),
        star_graph(3),
        matching_graph(2),
        h_graph(HParams(5, 2, 1)),
        s_graph(SplitParams(3, 2)),
        q_graph(QParams(7, 1, 1, 1)),
        uep_witness(9, 17),
        k3k2_witness(9, 17),
        split_pack_witness(9, 17),
        matching_witness(9, 3),
        canonical_form(base),
        *enumerate_nonisomorphic(4),
    ]
    for g in built:
        assert type(g.rows) is tuple and len(g.rows) == g.order, g
        assert all(type(r) is int for r in g.rows), g
        assert hash(g) == hash(Graph(g.order, tuple(list(g.rows))))
