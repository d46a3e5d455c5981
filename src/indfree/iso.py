"""Exact isomorphism machinery for small graphs.

Three entry points: canonical_form (an isomorphism-invariant relabeling,
equal iff isomorphic), is_isomorphic, and contains_induced (the induced
subgraph oracle returning an explicit embedding).

One search over vertex orderings, _search, serves canonical_form and
_aut_generators. It tries the orderings that respect a stable coloring,
skipping twins, and keeps those with the lexicographically least
adjacency code. The coloring is iterated neighbor-color refinement,
which on its own does not decide isomorphism; the ordering search
closes the gap, so the result is exact. A discrete coloring, one vertex
per color, allows one ordering, which is then the answer without any
search. canonical_form relabels its graph by the first ordering found,
through graphs.induced_subgraph, the package's one relabel.
_aut_generators reads generators of Aut(g) off the orderings that tie
and the twin swaps the search skips; the skips hide some tied
orderings, so these generate Aut(g) without listing it.

The search skips twins but is otherwise factorial in the size of the
color cells. It runs on every graph FamilySpec is given, up to 64
vertices, not only on enumerated graphs of at most 8: cycles, with one
cell and no twins, take 2.2 to 2.8 s of CPU at 14 vertices on a 2-core
Xeon VM under Python 3.11 (six runs), and `indfree pairs cycle:20 -n 5`
was stopped there after 90 s. Pruning at tied leaves cannot fix this:
on C14, about 89% of the search nodes lie under the first candidate for
the first slot, before the least code settles, so the cost comes from
the least-code objective itself. Both ways out change outputs and wait
on a decision (ROADMAP item 3).

contains_induced runs on witness hosts of up to 64 vertices. It skips
twin vertices and whole twin classes that a host automorphism
exchanges. The H- and Q-shaped hosts the constructions build, and their
complements, are cographs made of a few such classes, so on them one
failed candidate rules out a whole group of exchangeable classes at a
slot. No bound is proved: the README gives measured verify times on
these hosts. The search stays exponential in the worst case, for
example on large regular hosts with no twins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, induced_subgraph


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

    Each round ranks cell by cell, in color order. A cell of one vertex
    cannot split, so it gets the next rank and no key. In a larger cell,
    v's key is one int of 7-bit fields 64 - |N(v) & cell|, one per cell
    in color order; counts are at most 64, so the fields never carry and
    the ints compare as the tuples of negated counts do. The cell's
    vertices take the next ranks in key order, equal keys one rank.
    These are the ranks of the key (colors[v], negated counts) over all
    vertices: every vertex of a cell has the same first component, so
    sorting those keys visits the cells in color order and, inside one,
    sorts by the counts, and a lone vertex's key is unique whatever its
    counts. That key in turn ranks vertices exactly as the sorted tuple
    of neighbor colors would.
    Colors only ever refine the degree partition, so two keys with the
    same first component belong to vertices of equal degree, and their
    sorted neighbor-color tuples have equal length. Two such tuples first
    differ at the least color c whose count differs, and the one with
    more c's is the smaller, as its negated count is.
    """
    rows = g.rows
    n = g.order
    colors = list(g.degrees())
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    ncolors = len(rank)
    # a coloring with one vertex per color cannot split further
    while ncolors < n:
        cells = [0] * ncolors
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        new = [0] * n
        nxt = 0
        for cell in cells:
            if not cell & (cell - 1):
                new[cell.bit_length() - 1] = nxt
                nxt += 1
                continue
            keys = []
            while cell:
                lsb = cell & -cell
                cell ^= lsb
                v = lsb.bit_length() - 1
                r = rows[v]
                k = 0
                for c in cells:
                    k = k << 7 | 64 - (r & c).bit_count()
                keys.append((k, v))
            keys.sort()
            prev = keys[0][0]
            for k, v in keys:
                if k != prev:
                    nxt += 1
                    prev = k
                new[v] = nxt
            nxt += 1
        colors = new
        if nxt == ncolors:
            break
        ncolors = nxt
    return tuple(colors)


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


def _partner_blocks(rows: tuple[int, ...], twins: list[int]) -> dict[int, int]:
    """Map each block of two or more vertices to its partners' union.

    Call the twin classes blocks. A block is a module, and either a
    clique or an independent set. Two blocks A and B of the same size and
    kind with the same neighbours outside A | B are open or closed twins
    in the quotient graph by blocks, so exchanging them, fixing every
    other vertex, is an automorphism. The keys are _twin_masks' one level
    up: a block's row outside itself (open) or that row plus the block
    (closed), tagged with size and kind; an open key never equals a
    closed one, for the same reason as there. Blocks sharing a key are
    partners; the union is 0 for a block without any. A single vertex
    has no partner, since a partner would be its twin.
    """
    cls: dict[int, int] = {}
    get = cls.get
    keys: dict[int, int] = {}
    for b in set(twins):
        if b & (b - 1):
            row = rows[(b & -b).bit_length() - 1]
            # size (at most 64) and kind fill the low 8 bits
            key = (row & ~b) << 8 | b.bit_count() << 1 | (row & b != 0)
            keys[b] = key
            cls[key] = get(key, 0) | b
            key |= b << 8
            cls[key] = get(key, 0) | b
    return {b: (cls[key] | cls[key | b << 8]) & ~b for b, key in keys.items()}


_INF = 1 << 70


def canonical_form(g: Graph) -> Graph:
    """Canonical representative: equal for two graphs iff they are isomorphic.

    g relabelled by the first ordering _search finds with the least
    code, so vertex i of the output is that ordering's i-th vertex.
    Placing a twin of a vertex already tried at the same slot cannot
    change the best completion, so twins are skipped; that keeps
    cliques, stars and near-complete graphs linear instead of factorial.
    """
    return induced_subgraph(g, _search(g)[0])


def _aut_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each as perm with perm[v] the image of v.

    Two kinds: the map from the first ordering that reaches the least
    code in canonical_form's search to each later one, and for each twin
    class the transpositions of consecutive members. Two tied orderings a and
    b give one graph, so sending a[i] to b[i] is an automorphism, and
    Aut(g) maps the tied orderings of the unpruned search onto each
    other, one to one. The search misses a tied ordering only where it
    skipped a vertex v for a lower twin u tried at that slot; swapping u
    and v fixes the placed prefix and keeps codes and wl_colors, so it
    maps the missed ordering to a tied one that is less in label order.
    By induction every tied ordering, and so every automorphism, is
    reached from the first leaf by the two kinds together.
    """
    n = g.order
    leaves = _search(g)
    slot = [0] * n
    for i, v in enumerate(leaves[0]):
        slot[v] = i
    gens = [tuple([leaf[i] for i in slot]) for leaf in leaves[1:]]
    for cls in set(_twin_masks(g.rows)):
        members = [v for v in range(n) if cls >> v & 1]
        for u, v in zip(members, members[1:]):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return gens


def _search(g: Graph) -> list[tuple[int, ...]]:
    """The orderings with the least code, in the order found, over those
    that fill the cells of g's wl_colors in color order, skipping twins.
    A discrete coloring allows one ordering, so it is the answer and no
    code is compared."""
    colors = wl_colors(g)
    n = g.order
    cells = [0] * (max(colors, default=-1) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    if len(cells) == n:
        return [tuple([c.bit_length() - 1 for c in cells])]
    slots = [cells[c] for c in sorted(colors)]
    leaves: list[tuple[int, ...]] = []
    _least_code(0, 0, slots, g.rows, _twin_masks(g.rows), [_INF] * n, [], leaves)
    return leaves


def _least_code(
    i: int,
    used: int,
    slots: list[int],
    rows: tuple[int, ...],
    twins: list[int],
    best: list[int],
    placed: list[int],
    leaves: list[tuple[int, ...]],
) -> None:
    """Lower best[i:] to the least codes reachable from the placed prefix.

    An ordering's code at a slot is its vertex's adjacency bits toward
    the earlier ones; a branch is cut where its code exceeds best. A
    leaf reached ties best everywhere and goes to leaves, which a drop
    of best clears. twins[v] is skipped once v has been tried.
    """
    n = len(best)
    if i == n:
        leaves.append(tuple(placed))
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
            leaves.clear()
        placed.append(v)
        _least_code(i + 1, used | lsb, slots, rows, twins, best, placed, leaves)
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
    out. Three prunings keep misses on large hosts cheap:

    * forward checking: a placement that empties a later set is undone
      at once, instead of when the search reaches that slot;
    * twin pruning: a candidate that is a twin of one already tried at
      the same slot is skipped, since swapping the two is a host
      automorphism fixing every placed vertex;
    * block-swap pruning: when a candidate fails, so does every vertex
      of the twin classes (blocks) that can be exchanged whole with its
      own (see _partner_blocks). If neither block holds a placed vertex,
      the exchange fixes every placed vertex. If one does, it is joined
      to its own block as that block's kind says and to the other block
      the opposite way (else the two would be one block), so forward
      checking has already removed the other block from the slot.

    The K3K2 witness hosts delete many disjoint edges and triangles from
    a clique. Each deleted edge or triangle is a block, all of them
    exchangeable, and without the third pruning a miss tried the pattern
    on each of them in turn, at every slot.

    All three cut only subtrees without a solution, so the returned
    embedding is the first one in the unpruned search order.
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
    if not _extend(0, dom, edge, host.rows, [], {}, assign):
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
    partners: dict[int, int],
    assign: list[int],
) -> bool:
    """Fill slots i.. of assign from the candidate sets dom[i]; True on success.

    twins starts empty and gets the host's twin masks at the first failed
    candidate: a search that never backtracks does not pay for them.
    partners starts empty too and gets _partner_blocks the first time one
    slot, with candidates left, has seen two failed blocks of the same
    size, the least a swap of whole blocks needs to cut anything.
    Building it at the first failure made small hosts slower.
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
    sizes = 0
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
            if _extend(i + 1, dom, edge, hrows, twins, partners, assign):
                return True
        if not twins:
            twins += _twin_masks(hrows)
        block = twins[hv]
        cand &= ~block
        if partners:
            cand &= ~partners.get(block, 0)
        elif cand and block & (block - 1):
            size = 1 << block.bit_count()
            if sizes & size:
                partners.update(_partner_blocks(hrows, twins))
                cand &= ~partners[block]
            sizes |= size
    return False
