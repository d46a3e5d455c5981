"""Brute-force reference implementations used only by tests.

Everything here works by raw permutation and subset enumeration over the
adjacency rows, deliberately sharing no code path with the library's
canonical-form or backtracking search, so agreement is meaningful. The
graph6 references pack and unpack one bit per loop step, and the
construction references build from edge lists, sharing no code with the
library's base64 codec or its row-mask constructions. The H-graph
recogniser reference is the library's earlier one, which reads the
shape off an induced core subgraph and its complement rather than off
the row masks. The automorphism reference is the library's earlier
search, which maps vertices in label order instead of reading Aut(g)
off the canonical-form search's tied leaves.
"""

from __future__ import annotations

from itertools import combinations, permutations

from indfree import (
    MAX_ORDER,
    CapacityError,
    Graph,
    HParams,
    ParseError,
    complement,
    induced_subgraph,
    make_graph,
)

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
            f"graph6 string for order {n} needs {need} bytes, got {len(text)}",
            min(len(text), need),
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


def reference_recognize_h(g: Graph) -> HParams | None:
    """Reference for recognize_h: the core built as an induced subgraph,
    and the missing star read off its complement."""
    isolated = [v for v in range(g.order) if g.rows[v] == 0]
    core_vs = [v for v in range(g.order) if g.rows[v] != 0]
    r = len(isolated)
    p = len(core_vs)
    if p == 0:
        return HParams(0, 0, r)
    core = induced_subgraph(g, core_vs)
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
