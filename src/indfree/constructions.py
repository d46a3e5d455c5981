"""Witness-graph generators.

Three parameterized families and four (n, m)-indexed builders sit here.
The families: H(p,q,r) is a p-clique with a q-star of edges removed plus
r isolates; S(p,r) is the complete split graph (p-clique joined to an
r-independent set); Q(p,r,x,y) is a p-clique minus a vertex-disjoint
packing of x triangles and y edges, plus r isolates.

H and Q, and their complements, are built row by row from closed forms
in one pass. With F = 2^p - 1, A = 2^(p+r) - 1 and I = A ^ F:
  H (center 0, leaves 1..q, S = (2^q - 1) << 1): the center has F ^ 1 ^ S,
    a leaf u F ^ 1 ^ 1 << u, another clique vertex u F ^ 1 << u, an
    isolate 0; in the complement I | S, I | 1, I and A ^ 1 << u;
  Q (t = 3x, e = t + 2y): a triangle vertex u < t has F & ~(7 << 3(u // 3)),
    an edge vertex u in [t, e), on the pair from a = u - ((u - t) & 1),
    F ^ 3 << a, another clique vertex u F ^ 1 << u, an isolate 0; in the
    complement I | (7 << 3(u // 3)) ^ 1 << u, I | 1 << (2a + 1 - u), I
    and A ^ 1 << u.

The builders realize every edge count: uep_witness peels edges off a
clique one vertex at a time and lands on an H-graph; k3k2_witness deletes
triangles and independent edges and lands on a Q-graph; split_pack_witness
and matching_witness serve two specific two-graph forbidden families.
All builders are deterministic: equal inputs give bit-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import ParameterError, RangeError
from .graphs import (
    _BITS,
    Graph,
    _check_order,
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


def _h_rows(params: HParams, co: bool) -> tuple[int, ...]:
    """h_graph's rows, or with co set its complement's, in one pass by
    the row formulas of h_graph's docstring. Checks the order p + r
    before building any row."""
    p, q, r = params.p, params.q, params.r
    _check_order(p + r)
    full = (1 << p) - 1
    leaves = ((1 << q) - 1) << 1
    if co:
        every = (1 << p + r) - 1
        isolate = every ^ full
        tail = [every ^ b for b in _BITS[p : p + r]]
        if not p:
            return tuple(tail)
        return tuple([isolate | leaves] + [isolate | 1] * q + [isolate] * (p - 1 - q) + tail)
    if not p:
        return (0,) * r
    return tuple(
        [full ^ 1 ^ leaves]
        + [full ^ 1 ^ b for b in _BITS[1 : q + 1]]
        + [full ^ b for b in _BITS[q + 1 : p]]
        + [0] * r
    )


def h_graph(params: HParams) -> Graph:
    """Build H(p,q,r). Star center is vertex 0, leaves are 1..q.

    Rows, with F = 2^p - 1 and S = (2^q - 1) << 1: F ^ 1 ^ S for the
    center, F ^ 1 ^ 1 << u for each leaf u, F ^ 1 << u for each other
    clique vertex u, and 0 for the r isolated vertices p..p+r-1. The
    complement's rows, with A = 2^(p+r) - 1 and I = A ^ F: I | S for the
    center, I | 1 for each leaf, I for each other clique vertex and
    A ^ 1 << v for each isolate v.
    """
    return Graph(params.order, _h_rows(params, False))


def s_graph(params: SplitParams) -> Graph:
    """Build S(p,r): clique on 0..p-1, independent set after."""
    return join(complete_graph(params.p), empty_graph(params.r))


def _q_rows(params: QParams, co: bool) -> tuple[int, ...]:
    """q_graph's rows, or with co set its complement's, in one pass by
    the row formulas of q_graph's docstring; an edge vertex u's partner
    2a + 1 - u is u + 1 - 2((u - t) & 1). Checks the order p + r before
    building any row."""
    p, r = params.p, params.r
    t = 3 * params.x
    e = t + 2 * params.y
    _check_order(p + r)
    full = (1 << p) - 1
    if co:
        every = (1 << p + r) - 1
        isolate = every ^ full
        return tuple(
            [isolate | 7 * _BITS[u - u % 3] ^ _BITS[u] for u in range(t)]
            + [isolate | _BITS[u + 1 - 2 * (u - t & 1)] for u in range(t, e)]
            + [isolate] * (p - e)
            + [every ^ b for b in _BITS[p : p + r]]
        )
    return tuple(
        [full ^ 7 * _BITS[u - u % 3] for u in range(t)]
        + [full ^ 3 * _BITS[u - (u - t & 1)] for u in range(t, e)]
        + [full ^ b for b in _BITS[e:p]]
        + [0] * r
    )


def q_graph(params: QParams) -> Graph:
    """Build Q(p,r,x,y). Triangles occupy vertices 0..3x-1, edges the next 2y.

    Rows, with F = 2^p - 1, t = 3x and e = t + 2y: triangle vertex u < t
    has F & ~(7 << 3(u // 3)), its triangle cleared; edge vertex u in
    [t, e), on the pair from a = u - ((u - t) & 1), has F ^ 3 << a; any
    other clique vertex u has F ^ 1 << u; the r isolated vertices
    p..p+r-1 have 0. The complement's rows, with A = 2^(p+r) - 1 and
    I = A ^ F: I | (7 << 3(u // 3)) ^ 1 << u, I | 1 << (2a + 1 - u), I,
    and A ^ 1 << v for each isolate v.
    """
    return Graph(params.order, _q_rows(params, False))


def _min_clique_order(m: int) -> int:
    # least p with C(p,2) >= m: for m >= 1 that is one more than the
    # greatest q with q(q-1) <= 2m - 2, that is (2q-1)^2 <= 8m - 7
    return (isqrt(8 * m - 7) + 3) // 2 if m else 0


def _check_pair(n: int, m: int) -> None:
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise RangeError(f"edge count {m} out of range [0, C({n},2)={n*(n-1)//2}]")
    _check_order(n)


def _uep_params(n: int, m: int) -> HParams:
    """uep_witness's H parameters; checks (n, m) first."""
    _check_pair(n, m)
    p = _min_clique_order(m)
    return HParams(p, p * (p - 1) // 2 - m, n - p)


def uep_witness(n: int, m: int) -> Graph:
    """The H-graph on (n, m) reached by clique-peeling edge deletion.

    Take the least p with C(p,2) >= m; the witness is H(p, C(p,2)-m, n-p).
    Minimality of p forces q <= p-2, so the parameters are always valid.
    """
    return h_graph(_uep_params(n, m))


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


def _k3k2_params(n: int, m: int) -> QParams:
    """k3k2_witness's Q parameters; checks (n, m) first."""
    _check_pair(n, m)
    p = _min_clique_order(m)
    t = p * (p - 1) // 2 - m
    x, y = k3k2_decompose(p, t) if t else (0, 0)
    return QParams(p, n - p, x, y)


def k3k2_witness(n: int, m: int) -> Graph:
    """The Q-graph on (n, m) from triangle-and-edge deletion.

    Take the least p with C(p,2) >= m and t = C(p,2) - m; minimality gives
    t <= p-2, so t splits as 3x + y disjoint inside K_p.
    """
    return q_graph(_k3k2_params(n, m))


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
            return join(complete_graph(p), Graph(n - p, _q_rows(QParams(n - p, 0, x, y), True)))
    raise RangeError(f"no clique part covers m={m} at n={n}")


def matching_witness(n: int, m: int) -> Graph:
    """m disjoint edges plus n - 2m isolated vertices."""
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if not 0 <= m <= n // 2:
        raise RangeError(f"matching size {m} out of range [0, {n // 2}]")
    # the m edges are what Q(n, 0, 0, m) deletes from K_n
    return Graph(n, _q_rows(QParams(n, 0, 0, m), True))
