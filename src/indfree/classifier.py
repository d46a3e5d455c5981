"""Forbidden-graph classification and the witness dispatcher.

A forbidden graph G is trivially non-feasible (TNF) when it is a clique,
a clique minus one edge, or a complement of either; for every other G and
every pair (n, m) some n-vertex m-edge graph avoids an induced G. The
dispatcher below makes that effective: it recognizes which case G falls
in and hands back a certificate built by the matching construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .constructions import HParams, _check_pair, k3k2_witness, uep_witness
from .errors import (
    DegenerateForbiddenError,
    InfeasibleFamilyError,
    InternalInvariantError,
    ParameterError,
)
from .graphs import Graph, complement
from .iso import contains_induced


class TnfKind(Enum):
    CLIQUE = "Clique"
    CLIQUE_MINUS_EDGE = "CliqueMinusEdge"
    EMPTY = "Empty"
    EMPTY_PLUS_EDGE = "EmptyPlusEdge"


class ClassTag(Enum):
    TNF = "TNF"
    H_GRAPH = "HGraph"
    GENERAL = "General"


class Construction(Enum):
    UEP = "UEP"
    UEP_COMPLEMENT = "UEP_COMPLEMENT"
    K3K2 = "K3K2"
    K3K2_COMPLEMENT = "K3K2_COMPLEMENT"


@dataclass(frozen=True)
class ForbiddenClass:
    """Classification of a forbidden graph; exactly one tag, TNF wins ties."""

    tag: ClassTag
    tnf_kind: TnfKind | None = None
    k: int | None = None
    h: HParams | None = None


@dataclass(frozen=True)
class WitnessCertificate:
    """Auditable dispatcher output: the graph, what it avoids, how it was built."""

    graph: Graph
    n: int
    m: int
    forbidden: Graph
    construction: Construction
    verified: bool


def recognize_tnf(g: Graph) -> tuple[TnfKind, int] | None:
    """Detect the four TNF shapes by edge-count signature.

    On k >= 2 vertices, edge counts C(k,2), 0, C(k,2)-1 and 1 each force
    the shape outright, so no isomorphism search is needed. K_1 is not in
    the TNF set (it starts at k = 2) and returns None.
    """
    k = g.order
    if k < 2:
        return None
    m = g.edge_count
    full = k * (k - 1) // 2
    if m == full:
        return TnfKind.CLIQUE, k
    if m == 0:
        return TnfKind.EMPTY, k
    if m == full - 1:
        return TnfKind.CLIQUE_MINUS_EDGE, k
    if m == 1:
        return TnfKind.EMPTY_PLUS_EDGE, k
    return None


def recognize_h(g: Graph) -> HParams | None:
    """Match g against H(p,q,r), returning canonical parameters or None.

    Isolated vertices are split off as r first; a star center that lost
    all its clique edges (q = p-1) is itself isolated, so stripping makes
    the returned parameters canonical (q <= p-2, or p = 0) for free. The
    remaining core must be a clique minus a star: each core vertex's
    missing core neighbours, miss, must be empty or the star center,
    except at the center itself, which misses all q edges.
    """
    core = 0
    for row in g.rows:
        core |= row
    p = core.bit_count()
    r = g.order - p
    if p == 0:
        return HParams(0, 0, r)
    miss = [(v, core & ~(row | 1 << v)) for v, row in enumerate(g.rows) if row]
    q = sum(m.bit_count() for _, m in miss) // 2
    if q == 0:
        return HParams(p, 0, r)
    center, hub = max(miss, key=lambda vm: vm[1].bit_count())
    # a fast reject only: the loop below alone rejects every non-star
    if hub.bit_count() != q:
        return None
    for v, m in miss:
        if v != center and m & ~(1 << center):
            return None
    return HParams(p, q, r)


def classify(g: Graph) -> ForbiddenClass:
    """The one classification pass: TNF, else H-graph, else general.

    TNF wins ties, so K_k is TNF although it is also H(k,0,0). K_1 is
    not TNF (the TNF shapes start at k = 2), so it classifies as
    feasible by convention; witness still rejects it as degenerate,
    since every graph on one or more vertices contains it.
    """
    if g.order < 1:
        raise ParameterError("classification needs at least one vertex")
    tnf = recognize_tnf(g)
    if tnf is not None:
        return ForbiddenClass(ClassTag.TNF, tnf_kind=tnf[0], k=tnf[1])
    h = recognize_h(g)
    if h is not None:
        return ForbiddenClass(ClassTag.H_GRAPH, h=h)
    return ForbiddenClass(ClassTag.GENERAL)


def witness(forbidden: Graph, n: int, m: int, verify: bool = False) -> WitnessCertificate:
    """Build a graph on exactly (n, m) with no induced copy of `forbidden`.

    Case split on the classification of the forbidden graph:
      not an H-graph        -> UEP graph (every induced subgraph of one is
                               itself H-shaped, so nothing else appears);
      H(p,q,r), q >= 2      -> triangle-and-edge elimination (q >= 2 forces
                               p >= 4, enough room for the packing);
      H(p,0,r), p>=3, r>=1  -> complement of a UEP graph: the complement
                               of G is a complete split graph containing a
                               claw, and UEP graphs are claw-free;
      H(p,1,r), p>=4, r>=1  -> complement of a UEP graph, same reason;
      H(3,1,r), r>=1        -> complement of an elimination graph: the
                               complement of G is H(r+3, 2, 0).
    Any shape missing from this list is TNF, rejected up front. With
    verify set, the embedding oracle re-checks the output; a hit would
    falsify the construction and raises an internal error.
    """
    if forbidden.order <= 1:
        raise DegenerateForbiddenError(
            "single-vertex (or empty) forbidden graph admits no witness family"
        )
    cls = classify(forbidden)
    if cls.tag is ClassTag.TNF:
        raise InfeasibleFamilyError(cls.tnf_kind, cls.k)
    _check_pair(n, m)

    co_m = n * (n - 1) // 2 - m
    h = cls.h
    if h is None:
        tag, g = Construction.UEP, uep_witness(n, m)
    elif h.q >= 2:
        tag, g = Construction.K3K2, k3k2_witness(n, m)
    elif h.q == 0 or h.p >= 4:
        tag, g = Construction.UEP_COMPLEMENT, complement(uep_witness(n, co_m))
    else:
        tag, g = Construction.K3K2_COMPLEMENT, complement(k3k2_witness(n, co_m))

    if g.order != n or g.edge_count != m:
        raise InternalInvariantError(
            f"construction {tag.value} returned ({g.order},{g.edge_count}), wanted ({n},{m})"
        )
    if verify and contains_induced(g, forbidden) is not None:
        raise InternalInvariantError(
            f"witness from {tag.value} for ({n},{m}) contains the forbidden graph"
        )
    return WitnessCertificate(g, n, m, forbidden, tag, verify)


def turan_max_edges(n: int, k: int) -> int:
    """Most edges an n-vertex graph can have with no K_k subgraph.

    Edge count of the balanced complete (k-1)-partite graph on n vertices.
    """
    if k < 2 or n < 0:
        raise ParameterError(f"need k >= 2 and n >= 0, got k={k}, n={n}")
    parts = k - 1
    s, extra = divmod(n, parts)
    sq = extra * (s + 1) ** 2 + (parts - extra) * s * s
    return (n * n - sq) // 2


def tnf_infeasible_region(kind: TnfKind, k: int, n: int) -> tuple[range, bool]:
    """Known-infeasible edge counts, one range, for a TNF forbidden graph at n.

    Clique and Empty kinds are settled exactly by the Turan bound: above
    ex(n, K_k) a clique (hence an induced one) is unavoidable, and below
    it edge-deleted Turan graphs realize every count. The minus-edge kinds
    only have the one-sided bound from packing t = floor((n-k+2)/2) edge
    deletions, so their flag reports the region as not exact.
    """
    if k < 2 or n < 1:
        raise ParameterError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    full = n * (n - 1) // 2
    if kind is TnfKind.CLIQUE:
        ex = turan_max_edges(n, k)
        return range(ex + 1, full + 1), True
    if kind is TnfKind.EMPTY:
        ex = turan_max_edges(n, k)
        return range(0, full - ex), True
    if n < k:
        # pattern larger than host: every edge count is feasible
        return range(0), False
    t = (n - k + 2) // 2
    if kind is TnfKind.CLIQUE_MINUS_EDGE:
        return range(full - t, full), False
    if kind is TnfKind.EMPTY_PLUS_EDGE:
        return range(1, t + 1), False
    raise ParameterError(f"unknown TNF kind {kind!r}")
