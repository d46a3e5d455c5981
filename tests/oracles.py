"""Brute-force reference implementations used only by tests.

Everything here works by raw permutation and subset enumeration over the
adjacency rows, deliberately sharing no code path with the library's
canonical-form or backtracking search, so agreement is meaningful. The
graph6 references pack and unpack one bit per loop step, and the
construction references build from edge lists, sharing no code with the
library's base64 codec or its row-mask constructions. The H-graph
recogniser reference is the library's earlier one, which reads the
shape off an induced core subgraph and its complement rather than off
the row masks. It takes that subgraph through the induced-subgraph
reference, the library's earlier dict-based relabel, since the
library's bit-table induced_subgraph is also canonical_form's relabel.
The automorphism reference is the library's earlier search, which maps
vertices in label order instead of reading Aut(g) off the
canonical-form search's tied leaves; generated_group closes the
library's generators under composition so the two can be compared. The
canonical-form reference is the library's earlier one on the reference
coloring, without its twin skips: it tries every ordering of each color
cell and reads its graph off the least code bit by bit, where the
library relabels by its first leaf and takes a discrete coloring as
the ordering. The feasible-pair reference is the library's earlier
table scan: it runs the library's embedding search on host after host,
a path the library's tables no longer take, since they are read off the
masks that link each class to its deck. The children reference is the
library's earlier enumeration step: it canonicalizes every child of
every parent directly, with the library's canonical form and
automorphism generators, where the library reads half the children's
forms off the complement class's. The one-path reference is the
library's earlier test for skipping the ordering search: it builds the
whole twin table and asks whether every cell lies among its first
vertex's twins, where the library compares rows cell by cell. The
first-embedding reference is the embedding search with its forward
checking and its twin and block skips taken out, which pins which
embedding the library returns, not only whether one exists. The
least-code reference is the library's earlier ordering walk, which
computes every candidate's code bit by bit over the placed vertices,
where the library narrows the candidate mask once per placed vertex.
The construction-containment oracle decides whether a witness host
contains a pattern from the host's parameters alone, in closed form:
it never searches the host, so it can check the embedding search on
hosts of up to 64 vertices, where brute force cannot.
"""

from __future__ import annotations

from itertools import combinations, permutations

from indfree import (
    MAX_ORDER,
    CapacityError,
    Construction,
    FamilySpec,
    Graph,
    HParams,
    PairTable,
    ParseError,
    QParams,
    canonical_form,
    complement,
    contains_induced,
    enumerate_nonisomorphic,
    make_graph,
)
from indfree.errors import byte_offset
from indfree.iso import _aut_generators, _cells, _search, _twin_masks

_SHORT_MAX = 62


def reference_wl_colors(g: Graph) -> tuple[int, ...]:
    """Reference for wl_colors: the same refinement, read directly, with
    each vertex's neighbor colors gathered and sorted as a tuple."""
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


def reference_canonical_form(g: Graph) -> Graph:
    """Reference for canonical_form: the library's earlier one, which reads
    its graph off the least code bit by bit, on reference_wl_colors.

    The least-code search tries every ordering that fills the color
    cells in color order, with no twin skips and no shortcut for a
    discrete coloring, so it is factorial in the cell sizes.
    """
    n = g.order
    if n <= 1:
        return g
    colors = reference_wl_colors(g)
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    best = [1 << 70] * n
    _least_code_from(0, 0, [cells[c] for c in sorted(colors)], g.rows, best, [])
    out = [0] * n
    for i in range(n):
        for j in range(i):
            if best[i] >> (i - 1 - j) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return Graph(n, tuple(out))


def _least_code_from(
    i: int,
    used: int,
    slots: list[int],
    rows: tuple[int, ...],
    best: list[int],
    placed: list[int],
) -> None:
    """Lower best[i:] to the least codes of the orderings extending placed;
    a slot's code is its vertex's adjacency bits toward the earlier ones."""
    if i == len(best):
        return
    cand = slots[i] & ~used
    while cand:
        lsb = cand & -cand
        cand ^= lsb
        v = lsb.bit_length() - 1
        code = 0
        for u in placed:
            code = code << 1 | (rows[v] >> u & 1)
        if code > best[i]:
            continue
        if code < best[i]:
            best[i] = code
            for j in range(i + 1, len(best)):
                best[j] = 1 << 70
        placed.append(v)
        _least_code_from(i + 1, used | lsb, slots, rows, best, placed)
        placed.pop()


def reference_least_code(
    i: int,
    used: int,
    slots: list[int],
    rows,
    twins: list[int],
    best: list[int],
    placed: list[int],
    leaves: list[tuple[int, ...]],
) -> None:
    """The library's earlier _least_code, with the same arguments: each
    node computes every candidate's code first, skipping twins[v] once v
    is taken, and recurses, in label order, only into those with its
    least code, and only if that is at most best[i]."""
    n = len(best)
    if i == n:
        leaves.append(tuple(placed))
        return
    cand = slots[i] & ~used
    least = best[i]
    ties: list[int] = []
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= ~twins[v]
        ro = rows[v]
        code = 0
        for u in placed:
            code = code << 1 | (ro >> u & 1)
        if code < least:
            least = code
            ties = [v]
        elif code == least:
            ties.append(v)
    if least < best[i]:
        best[i] = least
        for j in range(i + 1, n):
            best[j] = 1 << 70
        leaves.clear()
    for v in ties:
        placed.append(v)
        reference_least_code(i + 1, used | 1 << v, slots, rows, twins, best, placed, leaves)
        placed.pop()


def reference_one_path(rows) -> bool:
    """Reference for _search's one-path test: every cell of _cells(rows)
    is one vertex or a set of twins, read off _twin_masks."""
    twins = _twin_masks(rows)
    return all(twins[(c & -c).bit_length() - 1] & c == c for c in _cells(rows))


def apply_perm(g: Graph, perm) -> Graph:
    """New graph whose vertex i is g's vertex perm[i]."""
    n = g.order
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = [0] * n
    for i, v in enumerate(perm):
        m = g.rows[v]
        while m:
            lsb = m & -m
            m ^= lsb
            rows[i] |= 1 << inv[lsb.bit_length() - 1]
    return Graph(n, tuple(rows))


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every permutation that apply_perm maps onto g itself."""
    return {p for p in permutations(range(g.order)) if apply_perm(g, p) == g}


def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """Every product of the permutations gens of range(n), identity included."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple([g[v] for v in p])
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def reference_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, each as perm with perm[v] the image of v.

    Maps vertices 0, 1, ... in turn, each to an unused vertex of its own
    reference_wl_colors cell whose adjacency to the images so far
    matches its own.
    """
    colors = reference_wl_colors(g)
    cells = [0] * (max(colors, default=0) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    out: list[tuple[int, ...]] = []
    _map_from(0, 0, g.rows, [cells[c] for c in colors], [], out)
    return out


def _map_from(
    v: int,
    used: int,
    rows: tuple[int, ...],
    cell_of: list[int],
    perm: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Append to out every automorphism extending the map perm of 0..v-1."""
    if v == len(rows):
        out.append(tuple(perm))
        return
    r = rows[v]
    cand = cell_of[v] & ~used
    while cand:
        lsb = cand & -cand
        cand ^= lsb
        w = lsb.bit_length() - 1
        rw = rows[w]
        if all(r >> u & 1 == rw >> x & 1 for u, x in enumerate(perm)):
            perm.append(w)
            _map_from(v + 1, used | lsb, rows, cell_of, perm, out)
            perm.pop()


def brute_is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.order != b.order or a.edge_count != b.edge_count:
        return False
    return any(apply_perm(a, p) == b for p in permutations(range(a.order)))


def brute_contains_induced(host: Graph, pattern: Graph) -> bool:
    if pattern.order > host.order:
        return False
    for subset in combinations(range(host.order), pattern.order):
        sub_rows = []
        for v in subset:
            row = 0
            for j, u in enumerate(subset):
                if host.rows[v] >> u & 1:
                    row |= 1 << j
            sub_rows.append(row)
        if brute_is_isomorphic(Graph(pattern.order, tuple(sub_rows)), pattern):
            return True
    return False


def reference_first_embedding(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """The first induced copy of pattern in host by plain backtracking,
    as a map from pattern vertices to host vertices, or None.

    Slots come in contains_induced's order, pattern vertices by
    descending degree with ties in label order, and each slot tries the
    host vertices in increasing label, keeping one that is unused and
    agrees on adjacency with every vertex placed before it. Nothing is
    pruned and no later slot is looked at ahead of time.
    """
    order = sorted(range(pattern.order), key=lambda v: -pattern.rows[v].bit_count())
    placed: list[int] = []

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        row = pattern.rows[order[i]]
        for hv in range(host.order):
            if hv not in placed and all(
                row >> order[j] & 1 == host.rows[hv] >> w & 1 for j, w in enumerate(placed)
            ):
                placed.append(hv)
                if extend(i + 1):
                    return True
                placed.pop()
        return False

    if not extend(0):
        return None
    out = [0] * pattern.order
    for pv, hv in zip(order, placed):
        out[pv] = hv
    return tuple(out)


def reference_feasible_pairs(family: FamilySpec, n: int) -> PairTable:
    """The library's earlier table: an exhaustive scan of the classes.

    The classes on n vertices are bucketed by edge count, and each
    bucket's classes are tried in enumeration order, with the embedding
    search against every forbidden graph, up to the first one that
    avoids them all.
    """
    buckets: list[list[Graph]] = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for g in enumerate_nonisomorphic(n):
        buckets[g.edge_count].append(g)
    pats = [g for g in family.forbidden if g.order <= n]
    feasible = [
        any(all(contains_induced(g, pat) is None for pat in pats) for g in hosts)
        for hosts in buckets
    ]
    return PairTable(n, tuple(feasible))


def reference_children(n: int, parents):
    """The library's earlier enumeration step: for each parent, the rows
    of the canonical forms of its children whose new vertex's mask is
    least in its orbit under Aut(parent), in mask order, each
    canonicalized."""
    for parent in parents:
        prows = parent.rows
        images = []
        for perm in _aut_generators(parent.rows, _search(parent.rows)):
            img = [0]
            for v in range(n - 1):
                bit = 1 << perm[v]
                img += [s | bit for s in img]
            images.append(img)
        met = bytearray(1 << (n - 1))
        forms = []
        for mask in range(1 << (n - 1)):
            if met[mask]:
                continue
            met[mask] = 1
            todo = [mask]
            while todo:
                m = todo.pop()
                for img in images:
                    s = img[m]
                    if not met[s]:
                        met[s] = 1
                        todo.append(s)
            rows = [prows[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            forms.append(canonical_form(Graph(n, tuple(rows))).rows)
        yield forms


def _edge_pairs(n: int):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _code_of(g: Graph, pairs) -> int:
    code = 0
    for i, (u, v) in enumerate(pairs):
        if g.rows[u] >> v & 1:
            code |= 1 << i
    return code


def orbit_class_count(n: int) -> int:
    """Count isomorphism classes on n vertices by full orbit closure.

    Walks all 2^C(n,2) labeled graphs in code order; each unseen code
    roots a new class and its whole permutation orbit is marked seen.
    """
    pairs = _edge_pairs(n)
    perms = list(permutations(range(n)))
    # per permutation, where each pair index lands
    pair_index = {p: i for i, p in enumerate(pairs)}
    moves = []
    for perm in perms:
        moves.append(
            [pair_index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
        )
    seen = bytearray(1 << len(pairs))
    classes = 0
    for code in range(1 << len(pairs)):
        if seen[code]:
            continue
        classes += 1
        for move in moves:
            img = 0
            rem = code
            while rem:
                lsb = rem & -rem
                rem ^= lsb
                img |= 1 << move[lsb.bit_length() - 1]
            seen[img] = 1
    return classes


def orbit_size_total(n: int) -> int:
    """Sum of orbit sizes, which must equal 2^C(n,2); exercised at n <= 5."""
    pairs = _edge_pairs(n)
    perms = list(permutations(range(n)))
    pair_index = {p: i for i, p in enumerate(pairs)}
    moves = []
    for perm in perms:
        moves.append(
            [pair_index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
        )
    seen = bytearray(1 << len(pairs))
    total = 0
    for code in range(1 << len(pairs)):
        if seen[code]:
            continue
        orbit = set()
        for move in moves:
            img = 0
            rem = code
            while rem:
                lsb = rem & -rem
                rem ^= lsb
                img |= 1 << move[lsb.bit_length() - 1]
            orbit.add(img)
            seen[img] = 1
        total += len(orbit)
    return total


def reference_encode_graph6(g: Graph) -> str:
    """Reference for encode_graph6: the bits packed one at a time."""
    n = g.order
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {MAX_ORDER} vertices")
    if n <= _SHORT_MAX:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr((n >> s & 63) + 63) for s in (12, 6, 0)]
    acc = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | (g.rows[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def _reference_decode_order(text: str) -> tuple[int, int]:
    head = ord(text[0])
    if 63 <= head < 126:
        return head - 63, 1
    if head != 126:
        raise ParseError(f"invalid graph6 order byte {text[0]!r}", 0)
    if text[1:2] == "~":
        raise CapacityError(f"graph6 order above 258047 exceeds the cap of {MAX_ORDER} vertices")
    if len(text) < 4:
        raise ParseError("truncated graph6 long-form order", 0)
    n = 0
    for pos in range(1, 4):
        b = ord(text[pos])
        if not 63 <= b <= 126:
            raise ParseError(f"invalid graph6 order byte {text[pos]!r}", pos)
        n = n << 6 | (b - 63)
    if n <= _SHORT_MAX:
        raise ParseError(f"graph6 long form is not canonical for order {n}", 0)
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {MAX_ORDER} vertices")
    return n, 4


def reference_decode_graph6(text: str) -> Graph:
    """Reference for decode_graph6: the bits unpacked one at a time."""
    if not text:
        raise ParseError("empty graph6 string", 0)
    n, pos = _reference_decode_order(text)
    need = pos + (n * (n - 1) // 2 + 5) // 6
    if len(text) != need:
        raise ParseError(
            f"graph6 string for order {n} needs {need} bytes, got {byte_offset(text, len(text))}",
            byte_offset(text, min(len(text), need)),
        )
    rows = [0] * n
    acc = 0
    have = 0
    for v in range(1, n):
        for u in range(v):
            if have == 0:
                b = ord(text[pos])
                if not 63 <= b <= 126:
                    raise ParseError(f"invalid graph6 byte {text[pos]!r}", pos)
                acc = b - 63
                have = 6
                pos += 1
            have -= 1
            if acc >> have & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if have and acc & ((1 << have) - 1):
        raise ParseError("nonzero padding bits", pos - 1)
    return Graph(n, tuple(rows))


def reference_h_graph(p: int, q: int, r: int) -> Graph:
    """H(p,q,r) from its edge list: K_p less the edges 0-1..0-q, r isolates."""
    return make_graph(p + r, [(u, v) for u in range(p) for v in range(u + 1, p) if not (u == 0 and v <= q)])


def reference_q_graph(p: int, r: int, x: int, y: int) -> Graph:
    """Q(p,r,x,y) from its edge list: K_p less x triangles on 0..3x-1 and
    y edges on the next 2y vertices, r isolates."""
    drop = set()
    for i in range(x):
        a = 3 * i
        drop |= {(a, a + 1), (a, a + 2), (a + 1, a + 2)}
    for i in range(y):
        a = 3 * x + 2 * i
        drop.add((a, a + 1))
    return make_graph(p + r, [(u, v) for u in range(p) for v in range(u + 1, p) if (u, v) not in drop])


def reference_s_graph(p: int, r: int) -> Graph:
    """S(p,r) from its edge list: every pair with an end in the clique 0..p-1."""
    return make_graph(p + r, [(u, v) for u in range(p) for v in range(u + 1, p + r)])


def reference_induced_subgraph(g: Graph, vertices) -> Graph:
    """Reference for induced_subgraph: the library's earlier one, which
    looks each neighbour up in a dict from vertex to its new label."""
    vs = list(vertices)
    idx = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        m = g.rows[v]
        while m:
            lsb = m & -m
            u = lsb.bit_length() - 1
            m ^= lsb
            j = idx.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(vs), tuple(rows))


def reference_recognize_h(g: Graph) -> HParams | None:
    """Reference for recognize_h: the core built as an induced subgraph,
    and the missing star read off its complement."""
    isolated = [v for v in range(g.order) if g.rows[v] == 0]
    core_vs = [v for v in range(g.order) if g.rows[v] != 0]
    r = len(isolated)
    p = len(core_vs)
    if p == 0:
        return HParams(0, 0, r)
    core = reference_induced_subgraph(g, core_vs)
    co = complement(core)
    q = co.edge_count
    if q == 0:
        return HParams(p, 0, r)
    center = max(range(p), key=lambda v: co.rows[v].bit_count())
    if co.rows[center].bit_count() != q:
        return None
    for v in range(p):
        if v != center and co.rows[v] & ~(1 << center):
            return None
    return HParams(p, q, r)


def builder_params(construction: Construction, n: int, m: int) -> HParams | QParams:
    """The parameters of the graph the construction's builder starts from
    for (n, m): H(p, C(p,2) - m, n - p) for UEP and Q(p, n - p, x, y) for
    K3K2, p the least clique with C(p,2) >= m, and the same at the
    complementary edge count for the two complement constructions.

    Worked out here from the edge counts, by counting up to p and down
    to the least x with 3x + 2y <= p, not with the builders' arithmetic.
    """
    if construction in (Construction.UEP_COMPLEMENT, Construction.K3K2_COMPLEMENT):
        m = n * (n - 1) // 2 - m
    p = 0
    while p * (p - 1) // 2 < m:
        p += 1
    t = p * (p - 1) // 2 - m
    if construction in (Construction.UEP, Construction.UEP_COMPLEMENT):
        return HParams(p, t, n - p)
    x = t // 3
    while x and 3 * (x - 1) + 2 * (t - 3 * (x - 1)) <= p:
        x -= 1
    return QParams(p, n - p, x, t - 3 * x)


def construction_host(construction: Construction, params: HParams | QParams) -> Graph:
    """The host the construction builds from params, from edge lists."""
    if isinstance(params, HParams):
        g = reference_h_graph(params.p, params.q, params.r)
    else:
        g = reference_q_graph(params.p, params.r, params.x, params.y)
    if construction in (Construction.UEP_COMPLEMENT, Construction.K3K2_COMPLEMENT):
        return complement(g)
    return g


def _h_canon(p: int, q: int, r: int) -> tuple[int, int, int]:
    """H(p,q,r)'s parameters as reference_recognize_h reads them off the
    graph: a center that lost every clique edge is one more isolate, and
    so is a clique of one vertex."""
    if p <= 1:
        return 0, 0, p + r
    if q == p - 1:
        return _h_canon(p - 1, 0, r + 1)
    return p, q, r


def _multipartite_parts(pattern: Graph) -> tuple[list[int], int] | None:
    """The part sizes of a complete multipartite graph on the pattern's
    vertices of nonzero degree, and the number of the others, or None
    if those vertices do not form one."""
    core = [v for v in range(pattern.order) if pattern.rows[v]]
    parts: list[int] = []
    seen: set[int] = set()
    for v in core:
        if v in seen:
            continue
        part = {u for u in core if u == v or not pattern.rows[v] >> u & 1}
        for u in part:
            if {w for w in core if w == u or not pattern.rows[u] >> w & 1} != part:
                return None
        seen |= part
        parts.append(len(part))
    return parts, pattern.order - len(core)


def construction_contains(host_params, pattern: Graph) -> bool:
    """Whether the host (construction, params) names, construction_host's
    graph, has an induced copy of pattern, read off the parameters.

    UEP: the host is H(p,q,r). An induced subgraph keeps the center or
    not, a of the q leaves, b of the p - 1 - q other clique vertices and
    i of the r isolates, and is H(1 + a + b, a, i) or H(a + b, 0, i), an
    H-graph with parameters the host's dominate. So the pattern must be
    H-shaped (reference_recognize_h), with its parameters among those.

    K3K2: the host is Q(p,r,x,y), K_p less x disjoint triangles and y
    disjoint edges plus r isolates: the complete multipartite graph with
    x parts of 3, y of 2 and p - 3x - 2y of 1, plus r isolates. An
    induced subgraph takes part of some parts and some isolates. Taking
    from two parts or more gives a complete multipartite graph whose
    parts fit into distinct host parts, plus isolates taken from the r
    alone; taking from one part gives isolates only, at most r plus the
    largest part.

    The complement constructions: the host's complement is the graph
    above, and the host contains the pattern exactly when that graph
    contains the pattern's complement.
    """
    construction, params = host_params
    if construction in (Construction.UEP_COMPLEMENT, Construction.K3K2_COMPLEMENT):
        pattern = complement(pattern)
    k = pattern.order
    if isinstance(params, HParams):
        want = reference_recognize_h(pattern)
        if want is None:
            return False
        want = (want.p, want.q, want.r)
        p, q, r = params.p, params.q, params.r
        for c in range(min(p, 1) + 1):
            for a in range(q + 1):
                for b in range(max(p - 1 - q, 0) + 1):
                    i = k - c - a - b
                    shape = (1 + a + b, a, i) if c else (a + b, 0, i)
                    if 0 <= i <= r and _h_canon(*shape) == want:
                        return True
        return False
    found = _multipartite_parts(pattern)
    if found is None:
        return False
    parts, isolates = found
    p, r, x, y = params.p, params.r, params.x, params.y
    if not parts:
        largest = 3 if x else 2 if y else 1 if p else 0
        return isolates <= r + largest
    # host parts, largest first: the pattern's parts fit into distinct
    # ones exactly when the i-th largest fits into the i-th largest
    sizes = [3] * x + [2] * y + [1] * (p - 3 * x - 2 * y)
    parts.sort(reverse=True)
    return (
        len(parts) <= len(sizes)
        and all(s <= h for s, h in zip(parts, sizes))
        and isolates <= r
    )
