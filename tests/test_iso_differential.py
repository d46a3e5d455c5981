"""contains_induced and is_isomorphic against networkx's VF2 matcher.

Skipped when networkx is not installed. Hosts are drawn uniformly, as
blow-ups of a small base graph, where every base vertex becomes a class
of open or closed twins, the structure the twin pruning acts on, and as
blow-ups whose twin classes can be swapped whole (see block_blowups),
the structure the block-swap pruning acts on.
"""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from indfree import Graph, contains_induced, is_isomorphic, make_graph
from test_properties import block_blowups, graphs, twin_blowups

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def to_nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.order))
    out.add_edges_from(g.edges())
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(graphs(max_order=10), twin_blowups(), block_blowups()),
    # twin patterns stay at 9 vertices, where VF2 is quick
    st.one_of(graphs(min_order=1, max_order=5), twin_blowups(max_base=3, max_class=3)),
)
def test_contains_induced_agrees_with_vf2(host, pattern):
    emb = contains_induced(host, pattern)
    expected = GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_is_isomorphic()
    assert (emb is not None) == expected
    if emb is not None:
        assert len(set(emb.map)) == pattern.order
        for i, j in combinations(range(pattern.order), 2):
            assert pattern.has_edge(i, j) == host.has_edge(emb.map[i], emb.map[j])


@settings(max_examples=200, deadline=None)
# canonical_form prunes single twins only: on larger blow-ups whose
# blocks swap whole its search grows fast, so the block blow-ups stay
# at 16 vertices
@given(st.one_of(graphs(), twin_blowups(), block_blowups(max_order=16)), st.data())
def test_is_isomorphic_agrees_with_vf2(a, data):
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(a.order)))
        b = make_graph(a.order, [(perm[u], perm[v]) for u, v in a.edges()])
    else:
        b = data.draw(graphs(min_order=a.order, max_order=a.order))
    assert is_isomorphic(a, b) == nx.is_isomorphic(to_nx(a), to_nx(b))
