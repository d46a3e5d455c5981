import pytest

from indfree import (
    CapacityError,
    ValidationError,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    join,
    make_graph,
    matching_graph,
    path_graph,
    star_graph,
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
