"""Exact isomorphism machinery for small graphs.

Three entry points: canonical_form (an isomorphism-invariant relabeling,
equal iff isomorphic), is_isomorphic, and contains_induced (the induced
subgraph oracle returning an explicit embedding).

canonical_form searches vertex orderings that respect a stable coloring
and keeps the lexicographically least adjacency code. The coloring is
iterated neighbor-color refinement, which on its own does not decide
isomorphism; the ordering search closes the gap, so the result is exact.
The package canonicalizes patterns and enumerated graphs of at most 8
vertices. contains_induced runs on witness hosts of up to 64 vertices;
both searches skip twin vertices, which keeps them fast on the H- and
Q-shaped hosts the constructions build. Both stay exponential in the
worst case, for example on large regular hosts with no twins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertices to host vertices.

    map[i] is the host vertex carrying pattern vertex i; every pattern
    pair (i, j) is an edge exactly when (map[i], map[j]) is.
    """

    map: tuple[int, ...]


def wl_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex coloring, invariant under relabeling.

    Starts from degrees and repeatedly splits classes by the multiset of
    neighbor colors until no class splits. Colors are ranks 0..c-1 in a
    label-independent order, so isomorphic graphs get matching colorings.
    """
    n = g.order
    colors = list(g.degrees())
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(n)
        ]
        krank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [krank[k] for k in keys]
        if len(krank) == len(set(colors)):
            return tuple(new)
        colors = new


def _twin_masks(rows: tuple[int, ...]) -> list[int]:
    """For each vertex, the mask of its twins, itself included.

    Vertices u and v are twins when their open neighborhoods are equal
    (rows[u] == rows[v]) or their closed ones are. Swapping two twins is
    an automorphism fixing every other vertex, so when a search has tried
    u at a slot and found nothing, v at that slot finds nothing either.
    One dict holds both kinds of key: an open row never equals a closed
    one, since N(u) = N[w] would put u in its own neighborhood.
    """
    cls: dict[int, int] = {}
    get = cls.get
    for v, r in enumerate(rows):
        bit = 1 << v
        cls[r] = get(r, 0) | bit
        r |= bit
        cls[r] = get(r, 0) | bit
    return [cls[r] | cls[r | 1 << v] for v, r in enumerate(rows)]


_INF = 1 << 70


def canonical_form(g: Graph) -> Graph:
    """Canonical representative: equal for two graphs iff they are isomorphic.

    Branch and bound over orderings consistent with wl_colors (cells in
    color order, one cell at a time). The code of an ordering is the
    per-vertex tuple of adjacency bits toward earlier vertices; the least
    code over all explored orderings defines the output graph. Placing a
    vertex twin to one already tried at the same slot cannot change the
    best completion, so twins are skipped; that keeps cliques, stars and
    near-complete graphs linear instead of factorial.
    """
    n = g.order
    if n <= 1:
        return g
    colors = wl_colors(g)
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    slots = [cells[c] for c in sorted(colors)]
    best = [_INF] * n
    _least_code(0, 0, slots, g.rows, _twin_masks(g.rows), best, [])

    out = [0] * n
    for i in range(n):
        code = best[i]
        for j in range(i):
            if code >> (i - 1 - j) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return Graph(n, tuple(out))


def _least_code(
    i: int,
    used: int,
    slots: list[int],
    rows: tuple[int, ...],
    twins: list[int],
    best: list[int],
    placed: list[int],
) -> None:
    """Lower best[i:] to the least codes reachable from the placed prefix."""
    n = len(best)
    if i == n:
        return
    cand = slots[i] & ~used
    while cand:
        lsb = cand & -cand
        v = lsb.bit_length() - 1
        cand &= ~twins[v]
        ro = rows[v]
        code = 0
        for u in placed:
            code = code << 1 | (ro >> u & 1)
        if code > best[i]:
            continue
        if code < best[i]:
            best[i] = code
            for j in range(i + 1, n):
                best[j] = _INF
        placed.append(v)
        _least_code(i + 1, used | lsb, slots, rows, twins, best, placed)
        placed.pop()


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.order != b.order or a.edge_count != b.edge_count:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    return canonical_form(a) == canonical_form(b)


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """Find an induced copy of pattern in host, or report there is none.

    Backtracking over pattern vertices in descending degree order, trying
    host candidates in increasing label order. Every later slot keeps its
    candidate set as a bitmask. Placing a vertex narrows each later set
    with one AND: against the placed vertex's neighborhood when the
    pattern demands an edge, against its non-neighborhood otherwise
    (induced means non-edges constrain too), and the placed vertex drops
    out. Two prunings keep misses on large hosts cheap:

    * forward checking: a placement that empties a later set is undone
      at once, instead of when the search reaches that slot;
    * twin pruning: a candidate that is a twin of one already tried at
      the same slot is skipped, since swapping the two is a host
      automorphism fixing every placed vertex.

    Both cut only subtrees without a solution, so the returned embedding
    is the first one in the unpruned search order.
    """
    np_, nh = pattern.order, host.order
    if np_ > nh:
        return None
    if np_ == 0:
        return Embedding(())
    prows = pattern.rows
    porder = sorted(range(np_), key=lambda v: -prows[v].bit_count())
    edge = [[prows[pv] >> pu & 1 for pu in porder] for pv in porder]
    # dom[i][k]: candidates for slot k once slots 0..i-1 are placed
    dom = [[(1 << nh) - 1] * np_ for _ in range(np_)]
    assign = [0] * np_
    if not _extend(0, dom, edge, host.rows, [], assign):
        return None
    out = [0] * np_
    for i, pv in enumerate(porder):
        out[pv] = assign[i]
    return Embedding(tuple(out))


def _extend(
    i: int,
    dom: list[list[int]],
    edge: list[list[int]],
    hrows: tuple[int, ...],
    twins: list[int],
    assign: list[int],
) -> bool:
    """Fill slots i.. of assign from the candidate sets dom[i]; True on success.

    twins starts empty and gets the host's twin masks at the first failed
    candidate: a search that never backtracks does not pay for them.
    """
    n = len(assign)
    cur = dom[i]
    cand = cur[i]
    if i + 1 == n:
        # nonempty: forward checking undoes any placement that empties it
        assign[i] = (cand & -cand).bit_length() - 1
        return True
    nxt = dom[i + 1]
    adj = edge[i]
    while cand:
        lsb = cand & -cand
        hv = lsb.bit_length() - 1
        row = hrows[hv]
        non = ~(row | lsb)
        for k in range(i + 1, n):
            m = cur[k] & (row if adj[k] else non)
            if not m:
                break
            nxt[k] = m
        else:
            assign[i] = hv
            if _extend(i + 1, dom, edge, hrows, twins, assign):
                return True
        if not twins:
            twins += _twin_masks(hrows)
        cand &= ~twins[hv]
    return False
