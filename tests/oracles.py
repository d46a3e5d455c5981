"""Brute-force reference implementations used only by tests.

Everything here works by raw permutation and subset enumeration over the
adjacency rows, deliberately sharing no code path with the library's
canonical-form or backtracking search, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations

from indfree import Graph


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
