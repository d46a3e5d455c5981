"""Small simple undirected graphs as tuples of adjacency bitmasks.

A graph on `order` vertices stores one integer per vertex; bit u of
``rows[v]`` is set iff uv is an edge. Rows are symmetric with a zero
diagonal. Everything is immutable and hashable, so graphs can be shared
freely between workers and used as dict keys.

The order cap of 64 keeps every neighborhood operation a single machine
word worth of bits; all the sweeps this package runs stay far below it.

Row tuples are built from lists, not generators: CPython 3.11 sizes a
tuple(<generator>) by resizing, which leaves one block per call on the
free list for the final size, so repeated calls grow memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, ValidationError

MAX_ORDER = 64


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. Build from edges via :func:`make_graph`, or
    from rows that are already symmetric with a zero diagonal."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        # equal graphs hash equal, and caches keyed on a Graph or its
        # rows accept one, whatever sequence the rows came in
        if type(self.rows) is not tuple:
            object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple([r.bit_count() for r in self.rows])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.order):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                lsb = m & -m
                yield u, lsb.bit_length() - 1
                m ^= lsb

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.rows[v]
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def __repr__(self) -> str:
        es = ",".join(f"{u}-{v}" for u, v in self.edges())
        return f"Graph({self.order};{es})"


def _check_order(order: int) -> None:
    """Raise ValidationError for a negative order, CapacityError above 64."""
    if order < 0:
        raise ValidationError(f"order must be non-negative, got {order}")
    if order > MAX_ORDER:
        raise CapacityError(f"order {order} exceeds the cap of {MAX_ORDER} vertices")


def make_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an explicit edge list; duplicate edges collapse.

    Raises CapacityError for order > 64, ValidationError for loops or
    endpoints outside [0, order).
    """
    _check_order(order)
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise ValidationError(f"loop at vertex {u} not allowed")
        if not (0 <= u < order and 0 <= v < order):
            raise ValidationError(f"edge ({u},{v}) out of range for order {order}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def complement(g: Graph) -> Graph:
    """Flip every off-diagonal adjacency bit."""
    return Graph(g.order, _co_rows(g.rows))


def _co_rows(rows) -> tuple[int, ...]:
    """complement's rows: each row's bits flipped but the diagonal one."""
    full = (1 << len(rows)) - 1
    return tuple([full ^ r ^ 1 << v for v, r in enumerate(rows)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Place b after a with no cross edges."""
    n = a.order + b.order
    _check_order(n)
    shifted = tuple([r << a.order for r in b.rows])
    return Graph(n, a.rows + shifted)


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    n = a.order + b.order
    _check_order(n)
    bmask = ((1 << b.order) - 1) << a.order
    amask = (1 << a.order) - 1
    rows = tuple([r | bmask for r in a.rows] + [(r << a.order) | amask for r in b.rows])
    return Graph(n, rows)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on `vertices` in their given order: vertex i is g's vertices[i].

    Raises ValidationError for a vertex outside [0, order) or one given twice.
    """
    vs = list(vertices)
    n = g.order
    seen = 0
    for v in vs:
        if not 0 <= v < n or seen >> v & 1:
            raise ValidationError(f"vertex {v} " + ("repeated" if 0 <= v < n else f"outside [0, {n})"))
        seen |= 1 << v
    return Graph(len(vs), _relabel(g.rows, vs))


def _relabel(rows, vs) -> tuple[int, ...]:
    """induced_subgraph's rows; vs must be distinct vertices, unchecked."""
    bit = [0] * len(rows)
    for i, v in enumerate(vs):
        bit[v] = 1 << i
    out = []
    for v in vs:
        r = rows[v]
        row = 0
        while r:
            lsb = r & -r
            r ^= lsb
            row |= bit[lsb.bit_length() - 1]
        out.append(row)
    return tuple(out)


# Named building blocks used throughout the constructions and the CLI catalog.

def _clique_rows(p: int, r: int) -> list[int]:
    """Rows of K_p followed by r isolated vertices: row u < p has every
    bit below p but its own. Checks the order p + r."""
    _check_order(p + r)
    full = (1 << p) - 1
    return [full ^ 1 << u for u in range(p)] + [0] * r


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple(_clique_rows(k, 0)))


def empty_graph(k: int) -> Graph:
    _check_order(k)
    return Graph(k, (0,) * k)


def path_graph(k: int) -> Graph:
    """Path on k vertices (k - 1 edges)."""
    return make_graph(k, ((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValidationError(f"cycle needs at least 3 vertices, got {k}")
    return make_graph(k, ((i, (i + 1) % k) for i in range(k)))


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves: vertex 0 is the center."""
    if leaves < 0:
        raise ValidationError(f"star needs a non-negative number of leaves, got {leaves}")
    return make_graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def matching_graph(k: int) -> Graph:
    """k disjoint edges on exactly 2k vertices."""
    if k < 0:
        raise ValidationError(f"matching needs a non-negative number of edges, got {k}")
    return make_graph(2 * k, ((2 * i, 2 * i + 1) for i in range(k)))
