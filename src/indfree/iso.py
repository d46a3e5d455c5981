"""Exact isomorphism machinery for small graphs.

Three entry points: canonical_form (an isomorphism-invariant relabeling,
equal iff isomorphic), is_isomorphic, and contains_induced (the induced
subgraph oracle returning an explicit embedding).

Every canonical form comes from one kernel on rows, _canon_rows, which
the enumeration calls with no Graph per child: it relabels by _search's
first ordering through graphs._relabel, the unchecked induced_subgraph.
_search also serves _aut_generators. It tries the orderings that fill
the cells of _cells, a stable coloring, in color order, skipping twins,
and keeps those with the lexicographically least adjacency code. The
coloring alone does not decide isomorphism; the search closes the gap,
so the result is exact. The refinement counts only into the cells split
off the round before (McKay & Piperno, arXiv:1301.1493), and still gets
the cells, in order, of counting into all; its degree cells come from
a list indexed by degree. If every cell is one vertex or a set of
twins, the search takes one path, with no code compared. It decides
that cell by cell from the rows, comparing each member's row with the
cell's first vertex's outside the cell, and builds the twin table
(_twin_masks) only for the walk. At a node the walk narrows the slot's
candidates to those with the least code, one AND per placed vertex,
and recurses only into them.
_aut_generators(rows, leaves) reads generators of Aut(g) off the
orderings that tie in g's search, handed over so that no search runs
twice, and the twin swaps the search skips; the skips hide some tied
orderings, so these generate Aut(g) without listing it.

The search skips twins but is otherwise factorial in the size of the
cells. It runs on every graph FamilySpec is given, up to 64 vertices,
not only on enumerated graphs of at most 8. Cycles have one cell and no
twins; the README times C14 under fixed relabellings. Recursing only
into the least codes cuts the subtrees of candidates that lose at their
own slot, which on unions of cliques such as 4K4 are nearly all of
them. A node costs one AND per placed vertex, not one bit per placed
vertex and candidate, but the node count is what grows. On a cycle
every vertex ties at the first slot: on C14 as cycle_graph labels it,
the walk takes 81,723 nodes in 14 subtrees that are images of each
other under the rotations. Skipping those images would need the
automorphisms found at tied leaves (McKay & Piperno); the ways out
that change outputs wait on a decision (ROADMAP item 7).

contains_induced runs on witness hosts of up to 64 vertices. Its
pattern side, the slot order, degrees, edge table and twin links, comes
from _plan, cached per pattern, since a sweep checks the same few
patterns against thousands of hosts; everything about the host is built
per call. It starts each slot from the host vertices whose degree
leaves room for the pattern vertex's neighbours and non-neighbours, and
stops at once when one has none; an index over the vertices left lets
it skip twin vertices and whole twin classes that a host automorphism
exchanges. The H- and Q-shaped hosts the constructions build, and their
complements, are cographs made of a few such classes, so on them one
failed candidate rules out a whole group of exchangeable classes at a
slot. On the pattern side, each twin class takes its host vertices in
increasing order, so a class of s twins is placed once, not in s!
orders. Every embedding returned is the same as without these cuts. No
bound is proved, and the search stays exponential in the worst case,
for example on large regular hosts with no twins, or on patterns whose
twin classes swap whole, since only single pattern twins are ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_

from .graphs import MAX_ORDER, Graph, _relabel

# patterns kept by the per-pattern caches; a sweep checks one pattern
# after another, so the live one stays
_PATTERN_CACHE = 256

# _BITS[v] is vertex v's bit, for every order the package builds
_BITS = tuple([1 << v for v in range(MAX_ORDER)])


def _bits(n: int) -> tuple[int, ...]:
    """The bits of vertices 0..n-1 and maybe more, to zip with n rows;
    a Graph made by hand can be larger than the package builds."""
    return _BITS if n <= MAX_ORDER else tuple([1 << v for v in range(n)])


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertices to host vertices.

    map[i] is the host vertex carrying pattern vertex i; every pattern
    pair (i, j) is an edge exactly when (map[i], map[j]) is.
    """

    map: tuple[int, ...]


def wl_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex coloring, invariant under relabeling: v's color is
    the index of v's cell in _cells."""
    cells = _cells(g.rows)
    return tuple([i for v in range(g.order) for i, c in enumerate(cells) if c >> v & 1])


def _cells(rows) -> list[int]:
    """The cells of the stable coloring, as vertex masks in color order.

    Starts from the degree cells and splits cells round by round until a
    round splits nothing. A round's splitters are the pieces the round
    before split off, of each split cell all but the last; the degree
    cells are pieces of the cell of all vertices. In a larger cell, v's
    key is one int of 7-bit fields 64 - |N(v) & s|, one per splitter s
    in color order (counts are at most 64, so the ints compare as tuples
    of negated counts), and the pieces replace the cell in key order.

    Counting into every cell gives the same pieces in the same order. By
    induction, a cell's vertices agree on their counts into every cell
    of the round before: a degree cell's on their degree, a later cell's
    on what its parent's agreed on and on its key, which fixes the last
    pieces by difference. So a dropped field counts into a cell that did
    not split, constant in the cell, or into the last piece of a split
    cell Z, the constant count into Z less the fields just before it;
    neither decides a comparison. The full key ranks a cell's vertices
    as their sorted tuples of neighbor colors do: the tuples have equal
    length, as the cells refine the degrees, and more of the least color
    whose count differs makes the smaller.
    """
    by = [0] * len(rows)
    for v, r in enumerate(rows):
        by[r.bit_count()] |= 1 << v
    cells = [c for c in by if c]
    split = cells[:-1]
    while split and len(cells) < len(rows):
        new, fresh = [], []
        for cell in cells:
            if not cell & (cell - 1):
                new.append(cell)
                continue
            parts: dict[int, int] = {}
            while cell:
                lsb = cell & -cell
                cell ^= lsb
                r = rows[lsb.bit_length() - 1]
                k = 0
                for s in split:
                    k = k << 7 | 64 - (r & s).bit_count()
                parts[k] = parts.get(k, 0) | lsb
            pieces = [parts[k] for k in sorted(parts)] if len(parts) > 1 else [parts[k]]
            new += pieces
            fresh += pieces[:-1]
        cells, split = new, fresh
    return cells


def _twin_masks(rows: tuple[int, ...]) -> list[int]:
    """For each vertex, the mask of its twins, itself included."""
    cls = _twin_classes(rows, (1 << len(rows)) - 1)
    return [cls[r] | cls[r | 1 << v] for v, r in enumerate(rows)]


def _twin_classes(rows: tuple[int, ...], live: int) -> dict[int, int]:
    """Each live vertex's open row and closed row, mapped to its twins
    in live, itself included.

    Vertices u and v are twins when their open neighborhoods are equal
    (rows[u] == rows[v]) or their closed ones are. Swapping two twins is
    an automorphism fixing every other vertex, so when a search has tried
    u at a slot and found nothing, v at that slot finds nothing either.
    One dict holds both kinds of key: an open row never equals a closed
    one, since N(u) = N[w] would put u in its own neighborhood. So v's
    twins are cls[rows[v]] | cls[rows[v] | 1 << v].
    """
    cls: dict[int, int] = {}
    get = cls.get
    for r, bit in zip(rows, _bits(len(rows))):
        if live & bit:
            cls[r] = get(r, 0) | bit
            r |= bit
            cls[r] = get(r, 0) | bit
    return cls


_INF = 1 << 70


def canonical_form(g: Graph) -> Graph:
    """Canonical representative: equal for two graphs iff they are isomorphic.

    g relabelled by the first ordering _search finds with the least
    code, so vertex i of the output is that ordering's i-th vertex.
    Placing a twin of a vertex already tried at the same slot cannot
    change the best completion, so twins are skipped; that keeps
    cliques, stars and near-complete graphs linear instead of factorial.
    """
    return Graph(g.order, _canon_rows(g.rows))


def _canon_rows(rows) -> tuple[int, ...]:
    """The rows of the canonical form of the graph with these rows."""
    return _relabel(rows, _search(rows)[0])


def _aut_generators(rows, leaves: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Generators of Aut(g), g the graph with these rows, each as perm
    with perm[v] the image of v, from leaves, _search(rows)'s orderings.

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
    n = len(rows)
    slot = [0] * n
    for i, v in enumerate(leaves[0]):
        slot[v] = i
    gens = [tuple([leaf[i] for i in slot]) for leaf in leaves[1:]]
    for cls in set(_twin_masks(rows)):
        members = [v for v in range(n) if cls >> v & 1]
        for u, v in zip(members, members[1:]):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return gens


def _search(rows) -> list[tuple[int, ...]]:
    """The orderings with the least code, in the order found, over those
    that fill the cells of _cells(rows) in color order, skipping twins.

    If every cell is one vertex or a set of twins, a slot's first
    candidate skips the rest of its cell: one path, each cell in label
    order, gives the answer with no code compared. The test runs per
    cell, against its first vertex f. The other members are all open
    twins of f, none adjacent to f, or all closed twins, all adjacent:
    an open twin u and a closed twin w of f would have w in N(u) = N(f)
    and u outside N[w] = N[f]. So f's row must meet the cell in nothing
    or in all the rest. Given that, the members are twins of f exactly
    when their rows agree with f's outside the cell: the cell refines
    the degrees, so equal rows outside it leave equal counts inside.
    Only when a cell fails does the walk run, with _twin_masks.
    """
    cells = _cells(rows)
    n = len(rows)
    if len(cells) == n:
        return [tuple([c.bit_length() - 1 for c in cells])]
    order: list[int] = []
    for c in cells:
        first = c & -c
        row = rows[first.bit_length() - 1]
        inner = row & c
        if inner and inner != c ^ first:
            break
        key = row | c
        rest = c
        while rest:
            lsb = rest & -rest
            v = lsb.bit_length() - 1
            if rows[v] | c != key:
                break
            order.append(v)
            rest ^= lsb
        if rest:
            break
    else:
        return [tuple(order)]
    slots = [c for c in cells for _ in range(c.bit_count())]
    leaves: list[tuple[int, ...]] = []
    _least_code(0, 0, slots, rows, _twin_masks(rows), [_INF] * n, [], leaves)
    return leaves


def _least_code(
    i: int,
    used: int,
    slots: list[int],
    rows,
    twins: list[int],
    best: list[int],
    placed: list[int],
    leaves: list[tuple[int, ...]],
) -> None:
    """Lower best[i:] to the least codes reachable from the placed prefix.

    An ordering's code at a slot is its vertex's adjacency bits toward
    the earlier ones. A node narrows the slot's candidates once per
    placed vertex u, in placement order: if some candidate is not
    adjacent to u, the least code has a 0 there and only those stay,
    else it has a 1 and all stay. What is left is exactly the candidates
    with the least code. If that code is above best[i] the node returns:
    every prefix extends to a full ordering, so a larger code at the
    same prefix is never least. Otherwise it recurses into them in label
    order, skipping twins[v] once v is taken (twins share every code). A
    leaf reached ties best everywhere and goes to leaves, which a drop
    of best clears.
    """
    n = len(best)
    if i == n:
        leaves.append(tuple(placed))
        return
    cand = slots[i] & ~used
    code = 0
    for u in placed:
        out = cand & ~rows[u]
        if out:
            cand = out
            code <<= 1
        else:
            code = code << 1 | 1
    if code > best[i]:
        return
    if code < best[i]:
        best[i] = code
        for j in range(i + 1, n):
            best[j] = _INF
        leaves.clear()
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= ~twins[v]
        placed.append(v)
        _least_code(i + 1, used | 1 << v, slots, rows, twins, best, placed, leaves)
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
    host candidates in increasing label order. The slot order, the
    slots' degrees and the pattern's edges between slots depend on the
    pattern alone, so _plan builds them once per pattern and every later
    call reads them from its cache. Every slot keeps its candidate set
    as a bitmask. The first sets come from the degrees alone (the first
    step of Ullmann, J. ACM 23(1), 1976): a host vertex can carry
    pattern vertex k only if it has at least as many neighbours and at
    least as many non-neighbours as k, a run of degrees, so each set is
    the difference of two prefix ORs of the host's degree buckets. If a
    set is empty the call returns None at once, with no index built.
    Placing a vertex narrows each later set with one AND: against the
    placed vertex's neighborhood when the pattern demands an edge,
    against its non-neighborhood otherwise (induced means non-edges
    constrain too), and the placed vertex drops out. Four prunings keep
    misses on large hosts cheap:

    * forward checking: a placement that empties a later set is undone
      at once, instead of when the search reaches that slot;
    * twin pruning: a candidate that is a twin of one already tried at
      the same slot is skipped, since swapping the two is a host
      automorphism fixing every placed vertex;
    * block-swap pruning: when a candidate fails, so does every vertex
      of the twin classes (blocks) that can be exchanged whole with its
      own (see _skip_index). If neither block holds a placed vertex,
      the exchange fixes every placed vertex. If one does, it is joined
      to its own block as that block's kind says and to the other block
      the opposite way (else the two would be one block), so forward
      checking has already removed the other block from the slot;
    * twin order: the pattern's own twins take their host vertices in
      increasing order. _plan links each slot to the last slot before
      it that holds a twin of its pattern vertex, and a slot keeps only
      the candidates above that slot's host vertex. Twins share a
      degree, so a twin class lies in one degree run of the slot order.
      Without this a class of s twins was tried in up to s! orders on
      the same host vertices: H(30,5,10)'s witness for (64, 1016) took
      5,051,650 nodes and S(25,3)'s for (64, 572) 28,354,104.

    The K3K2 witness hosts delete many disjoint edges and triangles from
    a clique. Each deleted edge or triangle is a block, all of them
    exchangeable, and without block-swap pruning a miss tried the
    pattern on each of them in turn, at every slot.

    Twin and block-swap pruning are one rule, as in _least_code:
    _skip_index, built once per call over the live vertices (those in
    some first set), gives each one's twin class and that class's
    partners, and a failed candidate takes them out of its slot. Twins
    and partner blocks share a degree, so they are live together.

    The search tries assignments in lexicographic order, slot by slot,
    and returns the first embedding it reaches, so it returns the least
    embedding L, in slot order, of the unpruned search, as long as no
    pruning cuts the path to L. The degree sets and forward checking
    drop only candidates that fail an edge or non-edge. The twin order
    keeps L: if twins at slots i < j had L[i] > L[j], swapping their
    images, a pattern automorphism, would give an embedding less than L
    at slot i. The host-side skips keep L too: say candidate v' = L[i]
    was skipped at slot i, with L[:i] placed, because a lower candidate
    v had failed there. A host automorphism t exchanges v and v' and
    fixes every placed vertex (when a block holds a placed vertex, the
    skip removed nothing the slot still held), so t applied to L is an
    embedding that agrees with L before slot i and is v < v' at slot i,
    less than L, which cannot be. So the prunings change which subtrees
    are searched, never the embedding returned.
    """
    np_, nh = pattern.order, host.order
    if np_ > nh:
        return None
    if np_ == 0:
        return Embedding(())
    porder, pdeg, edge, prev = _plan(pattern.rows)
    hrows = host.rows
    by = [0] * nh
    for r, bit in zip(hrows, _bits(nh)):
        by[r.bit_count()] |= bit
    # upto[d]: the host vertices of degree below d
    upto = [0, *accumulate(by, or_)]
    # at least d neighbours and np_ - 1 - d non-neighbours: degree d to d + span - 1
    span = nh - np_ + 1
    first = [upto[d + span] ^ upto[d] for d in pdeg]
    if not all(first):
        return None
    # dom[i][k]: candidates for slot k once slots 0..i-1 are placed
    dom = [first] + [[0] * np_ for _ in range(np_ - 1)]
    skip = _skip_index(hrows, reduce(or_, first))
    assign = [0] * np_
    if not _extend(0, dom, edge, prev, hrows, skip, assign):
        return None
    out = [0] * np_
    for i, pv in enumerate(porder):
        out[pv] = assign[i]
    return Embedding(tuple(out))


@lru_cache(maxsize=_PATTERN_CACHE)
def _plan(
    prows: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """contains_induced's pattern side, once per pattern: the slot order
    (pattern vertices by descending degree, ties in label order), each
    slot's degree, the edge table, edge[i][k] 1 when the vertices of
    slots i and k are joined, and prev[i], the last slot before i whose
    vertex is a twin of slot i's, or -1 if none is. All tuples, so no
    search can change what later calls share."""
    pdeg = [r.bit_count() for r in prows]
    porder = sorted(range(len(prows)), key=pdeg.__getitem__, reverse=True)
    twins = _twin_masks(prows)
    last: dict[int, int] = {}
    prev = []
    for i, pv in enumerate(porder):
        prev.append(last.get(twins[pv], -1))
        last[twins[pv]] = i
    return (
        tuple(porder),
        tuple([pdeg[pv] for pv in porder]),
        tuple([tuple([prows[pv] >> pu & 1 for pu in porder]) for pv in porder]),
        tuple(prev),
    )


def _skip_index(rows: tuple[int, ...], live: int) -> dict[int, int]:
    """What a failed candidate v rules out at its slot, keyed by row:
    skip[rows[v]] | skip[rows[v] | 1 << v] for v in live.

    Starts from _twin_classes. Call the twin classes of two or more
    vertices blocks. A block is a module, and either an independent set,
    whose members share their open row, or a clique, whose members share
    their closed row, so it has one key r here. Two blocks A and B of
    the same size and kind with the same neighbours outside A | B can be
    exchanged whole, fixing every other vertex, and a block's entry also
    holds these partners. Independent partners are joined to each other
    and cliques are not, else A | B would be one block. So r ^ A, tagged
    with size and kind, is the same for A and its partners: the outside
    plus A | B for independent blocks, the outside alone for cliques.
    Conversely, blocks of one size and kind sharing it meet the outside
    alike and are joined (independent) or apart (cliques), so they are
    partners. A single vertex has no partner, since a partner would be
    its twin. live must be a union of degree classes, which holds every
    twin and partner of its members.
    """
    skip = _twin_classes(rows, live)
    blocks = [(r, b) for r, b in skip.items() if b & (b - 1)]
    if len(blocks) > 1:
        # size (at most 64) and kind fill the low 8 bits
        keyed = [((r ^ b) << 8 | b.bit_count() << 1 | (r & b != 0), r, b) for r, b in blocks]
        cls: dict[int, int] = {}
        for key, _, b in keyed:
            cls[key] = cls.get(key, 0) | b
        for key, r, _ in keyed:
            skip[r] |= cls[key]
    return skip


def _extend(
    i: int,
    dom: list[list[int]],
    edge: tuple[tuple[int, ...], ...],
    prev: tuple[int, ...],
    hrows: tuple[int, ...],
    skip: dict[int, int],
    assign: list[int],
) -> bool:
    """Fill slots i.. of assign from the candidate sets dom[i]; True on success."""
    n = len(assign)
    cur = dom[i]
    cand = cur[i]
    if prev[i] >= 0:
        # a pattern twin class takes its host vertices in increasing order
        cand &= -(2 << assign[prev[i]])
    if i + 1 == n:
        # nonempty: each w in cur[i], which forward checking keeps
        # nonempty, completes an embedding. The search reaches no prefix
        # past the least embedding's, and a prefix before it would give
        # a lesser one, so this is the least embedding's prefix, and its
        # vertex here, above its twin's, survives the twin order
        assign[i] = (cand & -cand).bit_length() - 1
        return True
    nxt = dom[i + 1]
    adj = edge[i]
    while cand:
        lsb = cand & -cand
        hv = lsb.bit_length() - 1
        row = hrows[hv]
        closed = row | lsb
        non = ~closed
        for k in range(i + 1, n):
            m = cur[k] & (row if adj[k] else non)
            if not m:
                break
            nxt[k] = m
        else:
            assign[i] = hv
            if _extend(i + 1, dom, edge, prev, hrows, skip, assign):
                return True
        cand &= ~(skip[row] | skip[closed])
    return False
