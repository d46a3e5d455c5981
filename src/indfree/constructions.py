"""Witness-graph generators.

Three parameterized families and four (n, m)-indexed builders sit here.
The families: H(p,q,r) is a p-clique with a q-star of edges removed plus
r isolates; S(p,r) is the complete split graph (p-clique joined to an
r-independent set); Q(p,r,x,y) is a p-clique minus a vertex-disjoint
packing of x triangles and y edges, plus r isolates.

The builders realize every edge count: uep_witness peels edges off a
clique one vertex at a time and lands on an H-graph; k3k2_witness deletes
triangles and independent edges and lands on a Q-graph; split_pack_witness
and matching_witness serve two specific two-graph forbidden families.
All builders are deterministic: equal inputs give bit-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, RangeError
from .graphs import (
    Graph,
    _check_order,
    _clique_rows,
    complement,
    complete_graph,
    empty_graph,
    join,
)


@dataclass(frozen=True)
class HParams:
    """H(p,q,r): K_p minus a star K_{1,q}, plus r isolated vertices."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.p < 0 or self.r < 0:
            raise ParameterError(f"H parameters must be non-negative, got {self}")
        if not 0 <= self.q <= max(self.p - 1, 0):
            raise ParameterError(f"H needs 0 <= q <= max(p-1, 0), got {self}")

    @property
    def order(self) -> int:
        return self.p + self.r

    @property
    def edge_count(self) -> int:
        return self.p * (self.p - 1) // 2 - self.q


@dataclass(frozen=True)
class QParams:
    """Q(p,r,x,y): K_p minus x disjoint triangles and y disjoint edges, plus r isolates."""

    p: int
    r: int
    x: int
    y: int

    def __post_init__(self):
        if min(self.p, self.r, self.x, self.y) < 0:
            raise ParameterError(f"Q parameters must be non-negative, got {self}")
        if 3 * self.x + 2 * self.y > self.p:
            raise ParameterError(f"packing xK_3 + yK_2 does not fit in K_p: {self}")

    @property
    def order(self) -> int:
        return self.p + self.r

    @property
    def edge_count(self) -> int:
        return self.p * (self.p - 1) // 2 - 3 * self.x - self.y


@dataclass(frozen=True)
class SplitParams:
    """S(p,r): complete split graph, K_p joined to an independent r-set."""

    p: int
    r: int

    def __post_init__(self):
        if self.p < 0 or self.r < 0:
            raise ParameterError(f"S parameters must be non-negative, got {self}")
        if self.p + self.r < 2:
            raise ParameterError(f"S needs p + r >= 2, got {self}")

    @property
    def order(self) -> int:
        return self.p + self.r

    @property
    def edge_count(self) -> int:
        return self.p * (self.p - 1) // 2 + self.p * self.r


def h_graph(params: HParams) -> Graph:
    """Build H(p,q,r). Star center is vertex 0, leaves are 1..q.

    Rows: with full = 2^p - 1, clique vertex u has full ^ 1 << u, except
    that row 0 lacks bits 1..q and rows 1..q lack bit 0; the r isolated
    vertices p..p+r-1 have row 0.
    """
    rows = _clique_rows(params.p, params.r)
    for leaf in range(1, params.q + 1):
        rows[0] ^= 1 << leaf
        rows[leaf] ^= 1
    return Graph(params.order, tuple(rows))


def s_graph(params: SplitParams) -> Graph:
    """Build S(p,r): clique on 0..p-1, independent set after."""
    return join(complete_graph(params.p), empty_graph(params.r))


def q_graph(params: QParams) -> Graph:
    """Build Q(p,r,x,y). Triangles occupy vertices 0..3x-1, edges the next 2y.

    Rows: start from K_p's rows (full ^ 1 << u, full = 2^p - 1). Triangle
    i on a = 3i, a+1, a+2 clears its mask 7 << a from its three rows; edge
    j on a = 3x + 2j, a+1 clears bit a+1 of row a and bit a of row a+1.
    The r isolated vertices p..p+r-1 have row 0.
    """
    x, y = params.x, params.y
    rows = _clique_rows(params.p, params.r)
    for a in range(0, 3 * x, 3):
        triangle = 7 << a
        for u in (a, a + 1, a + 2):
            rows[u] &= ~triangle
    for a in range(3 * x, 3 * x + 2 * y, 2):
        rows[a] ^= 1 << (a + 1)
        rows[a + 1] ^= 1 << a
    return Graph(params.order, tuple(rows))


def _min_clique_order(m: int) -> int:
    # least p with C(p,2) >= m
    p = 0
    while p * (p - 1) // 2 < m:
        p += 1
    return p


def _check_pair(n: int, m: int) -> None:
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise RangeError(f"edge count {m} out of range [0, C({n},2)={n*(n-1)//2}]")
    # before any construction: _min_clique_order counts up to p
    _check_order(n)


def uep_witness(n: int, m: int) -> Graph:
    """The H-graph on (n, m) reached by clique-peeling edge deletion.

    Take the least p with C(p,2) >= m; the witness is H(p, C(p,2)-m, n-p).
    Minimality of p forces q <= p-2, so the parameters are always valid.
    """
    _check_pair(n, m)
    p = _min_clique_order(m)
    return h_graph(HParams(p, p * (p - 1) // 2 - m, n - p))


def k3k2_decompose(n: int, t: int) -> tuple[int, int]:
    """Split t into 3x + y with x triangles and y edges packing into K_n.

    Needs 0 <= t <= n-2. The least x keeping the packing inside n vertices
    is ceil((2t-n)/3), clamped at zero; then y = t - 3x.
    """
    if n < 2:
        raise RangeError(f"need n >= 2, got {n}")
    if not 0 <= t <= n - 2:
        raise RangeError(f"deletion target {t} out of range [0, {n - 2}]")
    x = max(0, -((n - 2 * t) // 3))
    return x, t - 3 * x


def k3k2_witness(n: int, m: int) -> Graph:
    """The Q-graph on (n, m) from triangle-and-edge deletion.

    Take the least p with C(p,2) >= m and t = C(p,2) - m; minimality gives
    t <= p-2, so t splits as 3x + y disjoint inside K_p.
    """
    _check_pair(n, m)
    p = _min_clique_order(m)
    t = p * (p - 1) // 2 - m
    x, y = k3k2_decompose(p, t) if t else (0, 0)
    return q_graph(QParams(p, n - p, x, y))


def split_pack_witness(n: int, m: int) -> Graph:
    """A graph on (n, m) with no induced P_3 + isolate and no K_4 + isolate.

    Near the top, K_n and K_n minus an edge. Otherwise a split graph with
    clique part p plus a triangle-and-edge packing inside the independent
    part: with base(p) = C(p,2) + p(n-p), the ranges [base(p), base(p) +
    (n-p-2)] for p = 0..n-3 tile [0, C(n,2)-2] with no gaps.
    """
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    _check_pair(n, m)
    top = n * (n - 1) // 2
    if m == top:
        return complete_graph(n)
    if m == top - 1:
        return q_graph(QParams(n, 0, 0, 1))
    for p in range(n - 2):
        base = p * (p - 1) // 2 + p * (n - p)
        if base <= m <= base + (n - p - 2):
            x, y = k3k2_decompose(n - p, m - base)
            # the packing xK_3 + yK_2 is what Q(n-p, 0, x, y) deletes
            return join(complete_graph(p), complement(q_graph(QParams(n - p, 0, x, y))))
    raise RangeError(f"no clique part covers m={m} at n={n}")


def matching_witness(n: int, m: int) -> Graph:
    """m disjoint edges plus n - 2m isolated vertices."""
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if not 0 <= m <= n // 2:
        raise RangeError(f"matching size {m} out of range [0, {n // 2}]")
    # the m edges are what Q(n, 0, 0, m) deletes from K_n
    return complement(q_graph(QParams(n, 0, 0, m)))
