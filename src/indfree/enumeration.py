"""Exhaustive enumeration and feasible-pair tables.

This module is the independent check on everything the constructions
promise: it enumerates all graphs on up to 8 vertices one isomorphism
class at a time, then marks which edge counts admit a member avoiding
every forbidden pattern. Representatives are canonical forms, so two
runs always agree. Inside the module a class is the row tuple of its
form; only enumerate_nonisomorphic wraps rows in a Graph.

Each order is built by giving every class one order down, a parent,
one more vertex. Complementation maps the children of a parent P onto
those of its complement class. So parents come in units, P with its
complement class, served by one search of P's complement rows, which
graphs._co_rows gives as it gives every complement here; only P has
its children canonicalized, and its partner's forms are the complements
of P's. The units are cut into contiguous runs, one per CPU; forked
helpers work through every run but the first, and the calling process
merges all the forms in class order, so the classes and their order
are those of one process.

The classes come in a fixed order. For n <= 6 they are sorted by their
labeled adjacency code (bit i for the i-th vertex pair in lexicographic
order). For n >= 7 they come in order of first discovery: the classes
on n - 1 vertices in their own order, each extended by one vertex with
every neighbourhood mask in ascending order. The tables do not depend
on the order; it is kept because enumerate_nonisomorphic's sequence is
part of the interface.

The tables need no embedding search. Enumerating each order from the
one below visits every class's deck, the graphs left by deleting one
vertex, so _reps records which classes extend which as bitmasks.
_containing chains those links into containment masks, built once per
pair of orders k < n: the classes on n vertices that contain each class
F on k. A copy of F in a class C, plus any other vertex of C, is a
one-vertex extension of F that C contains, so F's mask is the union of
the masks of the classes on k + 1 vertices with F in their deck.
feasible_pairs then ORs one mask per forbidden graph at each level, and
stops at the first level where every class contains a forbidden graph,
building nothing above it.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import compress
from operator import or_
from typing import BinaryIO, Iterable, Iterator

from .errors import CapacityError, RangeError, ValidationError
from .graph6 import encode_graph6
from .graphs import Graph, _co_rows, _relabel
from .iso import _aut_generators, _canon_rows, _search, canonical_form

ENUMERATION_CAP = 8
# fewest parents per run. The 11 parents on 4 vertices take about 2 ms.
# The 34 on 5 took 7.7-14.3 ms in process against 10.5-23.8 ms with one
# helper, in process faster in 33 of 44 alternating fresh runs, and the
# 156 on 6 took 66-124 ms against 45-141 ms, faster in 18 of 30; neither
# wins often enough to keep its level in process
_MIN_RUN = 16
# bin()'s digits as the bytes 0 and 1, which compress reads as flags
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# _POPCOUNT[b]: the number of set bits in the byte b
_POPCOUNT = bytes([bin(b).count("1") for b in range(256)])


def _check_n(n: int) -> None:
    """Raise RangeError for a negative n, CapacityError above ENUMERATION_CAP."""
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive enumeration caps at n = {ENUMERATION_CAP}, got {n}")


@lru_cache(maxsize=None)
def _reps(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The canonical class representatives on n vertices as row tuples,
    in class order, and the masks up: bit i of up[j] is set when class i
    has class j of _reps(n - 1) in its deck.

    Every order is built from the one below: _children gives each parent
    P on n - 1 vertices one new vertex with every neighbourhood mask that
    is least in its orbit under Aut(P), in ascending order, and the
    canonical forms of those children. Each child's canonical form is
    kept the first time it appears, as the tuple of the n row bytes
    _merge reads. For n <= 6 the classes are then sorted by _scan_code,
    the order of the module docstring; for n >= 7 the order of first
    discovery is the class order.

    Every child sets its bit in its parent's mask, and so every card of
    every class is recorded: for any vertex v of a class C, C - v is
    isomorphic to some parent P, and C is then P plus one vertex whose
    mask lies in one orbit of Aut(P), the orbit whose least mask makes a
    child. The bits first follow the order of discovery, so for n <= 6
    the masks are rebuilt after the sort, with the bits at the sorted
    positions.

    _units pairs each parent with its complement class, found in
    _positions(n - 1), and _reps cuts those units, in class order, into
    contiguous runs, one per CPU the process may run on but none for
    fewer than _MIN_RUN parents. Both
    parents of a unit go to one run, so _children canonicalizes the
    children of only one of them. A forked helper runs _children on each
    run but the first and writes the forms to a pipe; this process packs
    the first run's forms the same way, n bytes a child, and _merge then
    reads every parent's forms in class order. Every parent's children
    thus meet its index in the same sequence as in a single process, so
    the discovery order and the masks depend neither on the number of
    runs nor on which parent of a pair took the complement path. No
    helper is forked where os.fork is missing or a second thread runs,
    since a forked copy of a threaded process may hold a lock no thread
    will release. A run whose pipe or fork fails, whose helper exits
    nonzero, or whose blob does not decode to exactly its parents is
    recomputed here, and every helper not yet reaped is killed and
    reaped before _reps returns or raises.
    """
    if n == 0:
        return ((),), ()
    parents = _reps(n - 1)[0]
    units = _units(parents)
    w = max(1, min(_cpus(), len(parents) // _MIN_RUN))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        w = 1
    runs = [units[len(units) * k // w:len(units) * (k + 1) // w] for k in range(w)]

    def pack(k):
        return _pack(_children(n, parents, runs[k]))

    # spans[i]: the blob holding parents[i]'s forms, and where they lie in it
    spans: list[tuple[bytes, int, int] | None] = [None] * len(parents)

    def place(k, blob):
        # the parents of run k in _children's order
        order = [x for i, j, _, _ in runs[k] for x in ((i,) if i == j else (i, j))]
        where = None if blob is None else _spans(n, blob, len(order))
        if where is None:
            return False
        for i, (a, b) in zip(order, where):
            spans[i] = blob, a, b
        return True

    # helpers[k]: (pid, pipe) of the helper running run k, until reaped
    helpers: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for k in range(1, w):
            helper = _fork_helper(partial(pack, k))
            if helper is not None:
                helpers[k] = helper
        place(0, pack(0))
        for k in range(1, w):
            if not (k in helpers and place(k, _reap(helpers, k))):
                place(k, pack(k))
    finally:
        for pid, pipe in helpers.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    forms, up = _merge(n, spans)
    # the blobs go before the classes are built
    spans.clear()
    out = [tuple(c) for c in forms]
    if n <= 6:
        order = sorted(range(len(out)), key=lambda i: _scan_code(out[i]))
        out = [out[i] for i in order]
        # rank[k]: the sorted position of the class discovered k-th
        rank = sorted(range(len(order)), key=order.__getitem__)
        up = [_bitmap(compress(rank, _flags(kids)), len(out)) for kids in up]
    return tuple(out), tuple(up)


def _merge(n: int, spans) -> tuple[list[bytes], list[int]]:
    """The distinct forms the spans hold, n bytes each, in order of first
    appearance, and for each span the mask of its forms among them.

    Each span's positions are turned into its mask before the next span
    is read, so only one span's list of positions is alive at a time.
    """
    index: dict[bytes, int] = {}
    up = []
    for blob, a, b in spans:
        kids = [index.setdefault(blob[j:j + n], len(index)) for j in range(a, b, n)]
        up.append(_bitmap(kids, len(index)))
    return list(index), up


def _bitmap(positions: Iterable[int], size: int) -> int:
    """The mask with bit i set for each i in positions, all below size.

    The bits are set in a bytearray and converted to an int once, so no
    step handles a Python int wider than a byte.
    """
    bits = bytearray((size + 7) >> 3)
    for i in positions:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _flags(mask: int) -> bytes:
    """Byte i is 1 if bit i of mask is set and 0 if not, up to the
    highest set bit (one 0 byte for mask 0)."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)


def _units(parents) -> list[tuple[int, int, tuple[int, ...], list[tuple[int, ...]]]]:
    """One (i, j, lam, gens) per complement pair of parents, the row
    tuples of one level, in class order of i: parents[j] is the
    complement class of parents[i], with j >= i, and j == i for a
    self-complementary parent; lam is an isomorphism from parents[j] onto
    complement(parents[i]), parents[j]'s vertex k being
    complement(parents[i])'s vertex lam[k]; and gens generate Aut(parents[i]).

    One search serves a pair. parents[j], found in _positions, is the
    form of P's complement rows _co_rows(P), relabelled by lam, the
    first leaf of their search.
    The same leaves give gens: P and complement(P) have the same
    automorphisms, since a permutation keeps the edges iff it keeps the
    non-edges, and the same twin classes, since N(u) = N(v) in P iff u
    and v have the same closed neighbourhood in complement(P), and the
    other way round. So the tied leaves and twin swaps that generate
    Aut(complement(P)) generate Aut(P).
    """
    pos = _positions(len(parents[0]))
    done = bytearray(len(parents))
    units = []
    for i, p in enumerate(parents):
        if done[i]:
            continue
        co = _co_rows(p)
        leaves = _search(co)
        j = pos[_relabel(co, leaves[0])]
        done[j] = 1
        units.append((i, j, leaves[0], _aut_generators(co, leaves)))
    return units


def _children(n: int, parents, units) -> Iterator[list[tuple[int, ...]]]:
    """For each unit of _units, the lists of parents[i] and then, unless
    j == i, of parents[j] (row tuples): the rows of the canonical forms of
    the parent's children whose new vertex's mask is least in its orbit
    under Aut(parent), in mask order.

    A mask is skipped unless it is the least of its orbit. Some
    automorphism maps the orbit's least mask, met earlier, onto the
    skipped one, and that automorphism, fixing the new vertex, is an
    isomorphism between the two children, so the skipped child's class
    is already kept and neither the set of classes nor their order
    changes.

    P = parents[i] takes the direct path. Aut(P) comes as the unit's
    generators, not as a list of its elements. An orbit is the closure
    of its least mask under the generators, since every automorphism is
    a product of them and Aut(P) is finite, so a worklist that applies
    each generator to each mask it reaches marks exactly the orbit.

    Q = parents[j] takes the complement path, off P's orbits and forms.
    Q's vertex k is complement(P)'s vertex lam[k]. The child Q + S has
    as complement complement(Q) plus a vertex joined to the vertices
    outside S, which lam relabels to P + T, where T holds the lam[k]
    with k not in S. So Q + S and complement(P + T) are isomorphic, and
    P's form C for the orbit of T gives Q + S the form of _co_rows(C),
    cached per class both ways. The relabelling maps orbits of Aut(Q)
    onto orbits of Aut(P), so the masks S whose T meets an orbit first
    are the least of their orbits under Aut(Q), and Q's list is the one
    the direct path gives.
    """
    full = (1 << (n - 1)) - 1
    # flip[C]: the form of _co_rows(C), C and the form given by rows
    flip: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, j, lam, gens in units:
        prows = parents[i]
        # images[k][mask]: the image of mask under the k-th generator
        images = [_images(perm) for perm in gens]
        orbit = [-1] * (full + 1)
        forms = []
        for mask in range(full + 1):
            if orbit[mask] >= 0:
                continue
            o = orbit[mask] = len(forms)
            todo = [mask]
            while todo:
                m = todo.pop()
                for img in images:
                    s = img[m]
                    if orbit[s] < 0:
                        orbit[s] = o
                        todo.append(s)
            rows = [prows[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            forms.append(_canon_rows(rows))
        yield forms
        if j == i:
            continue
        seen = bytearray(len(forms))
        flipped = []
        for t in _images(lam):
            o = orbit[full ^ t]
            if not seen[o]:
                seen[o] = 1
                c = forms[o]
                d = flip.get(c)
                if d is None:
                    d = flip[c] = _canon_rows(_co_rows(c))
                    flip[d] = c
                flipped.append(d)
        yield flipped


def _images(perm) -> list[int]:
    """The image of every mask under the vertex map v -> perm[v], by mask."""
    img = [0]
    for v in range(len(perm)):
        bit = 1 << perm[v]
        img += [s | bit for s in img]
    return img


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pack(lists) -> bytes:
    """_children's lists as one blob: per parent, its child count in 2
    bytes and then each child's rows, one byte per row (n <= 8)."""
    blob = bytearray()
    for forms in lists:
        blob += len(forms).to_bytes(2, "little")
        blob += b"".join(map(bytes, forms))
    return bytes(blob)


def _fork_helper(job) -> tuple[int, BinaryIO] | None:
    """Fork a helper that writes the blob job() returns to a pipe and
    exits; its pid and the pipe's read end, or None when the pipe or the
    fork fails.

    The helper writes nothing else and leaves through os._exit, so no
    buffer or exit handler it inherited runs twice; it exits 1 if
    anything raised.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            view = memoryview(job())
            while view:
                view = view[os.write(w, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _reap(helpers: dict[int, tuple[int, BinaryIO]], k: int) -> bytes | None:
    """Read helper k's blob to the end, reap the helper and drop it from
    helpers; the blob, or None unless the helper exited 0."""
    pid, pipe = helpers[k]
    with pipe:
        blob = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del helpers[k]
    return blob if status == 0 else None


def _spans(n: int, blob: bytes, parents: int) -> list[tuple[int, int]] | None:
    """Where each parent's forms lie in a _pack blob, as (start, end), or
    None unless the blob holds exactly `parents` of them."""
    spans = []
    at = 0
    for _ in range(parents):
        if at + 2 > len(blob):
            return None
        start = at + 2
        at = start + n * int.from_bytes(blob[at:start], "little")
        spans.append((start, at))
    if at != len(blob):
        return None
    return spans


def _scan_code(rows) -> int:
    """Labeled adjacency code of a graph given by its rows: bit i set for
    the i-th pair (u, v), u < v, in lexicographic order."""
    code = shift = 0
    for u, r in enumerate(rows):
        code |= r >> (u + 1) << shift
        shift += len(rows) - 1 - u
    return code


@lru_cache(maxsize=None)
def _edge_masks(n: int) -> tuple[int, ...]:
    """For each edge count m, the mask of the classes in _reps(n) with m edges.

    A class's edge count is half the popcount of its row bytes (n <= 8,
    so each row is one byte), and each mask is a _bitmap of the
    positions of its classes.
    """
    classes = _reps(n)[0]
    # buckets[m]: the positions of the classes with m edges
    buckets: list[list[int]] = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for i, rows in enumerate(classes):
        buckets[sum(bytes(rows).translate(_POPCOUNT)) >> 1].append(i)
    return tuple(_bitmap(b, len(classes)) for b in buckets)


@lru_cache(maxsize=None)
def _containing(n: int, k: int) -> tuple[int, ...]:
    """For each class on k < n vertices, in class order, the mask of the
    classes in _reps(n) that contain it as an induced subgraph.

    At k = n - 1 these are the up masks of _reps(n). Below, a copy of a
    class F in a class C, plus any other vertex of C, is an induced
    subgraph of C on k + 1 vertices with F in its deck, so F's mask is
    the union of the masks of the classes on k + 1 vertices that have F
    in their deck: one compress and one reduce per class, off _flags of
    its up mask in _reps(k + 1).
    """
    up = _reps(k + 1)[1]
    if k == n - 1:
        return up
    above = _containing(n, k + 1)
    return tuple([reduce(or_, compress(above, _flags(mask)), 0) for mask in up])


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[tuple[int, ...], int]:
    """The position of each class in _reps(n), keyed by its rows."""
    return {rows: i for i, rows in enumerate(_reps(n)[0])}


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """An iterator over one representative per isomorphism class on n vertices.

    Exhaustive only up to n = 8 (12346 classes); beyond that the space
    outgrows desk scale and this package offers no sampling fallback.
    The order is checked, and the classes built, when it is called; each
    Graph wraps the row tuple _reps holds for its class.
    """
    _check_n(n)
    return map(partial(Graph, n), _reps(n)[0])


@dataclass(frozen=True)
class FamilySpec:
    """Forbidden set defining a family: members avoid every listed graph.

    Graphs are stored canonical, deduplicated up to isomorphism and sorted
    by size, so equal families compare and hash equal.
    """

    forbidden: tuple[Graph, ...]

    def __init__(self, forbidden):
        pats = list(forbidden)
        if not pats:
            raise ValidationError("family needs at least one forbidden graph")
        if any(g.order < 1 for g in pats):
            raise ValidationError("forbidden graphs need at least one vertex")
        canon = sorted(
            {canonical_form(g) for g in pats},
            key=lambda g: (g.order, g.edge_count, g.rows),
        )
        object.__setattr__(self, "forbidden", tuple(canon))


@dataclass(frozen=True)
class PairTable:
    """Feasibility of every edge count at one vertex count.

    feasible[m] says whether some n-vertex graph with m edges avoids all
    forbidden graphs; f and F are the least and greatest infeasible m,
    or None when every pair is feasible.
    """

    n: int
    feasible: tuple[bool, ...]
    f: int | None = field(init=False)
    F: int | None = field(init=False)

    def __post_init__(self):
        bad = [m for m, ok in enumerate(self.feasible) if not ok]
        object.__setattr__(self, "f", bad[0] if bad else None)
        object.__setattr__(self, "F", bad[-1] if bad else None)


def feasible_pairs(family: FamilySpec, n: int) -> PairTable:
    """Exact feasibility table, read off the containment masks.

    The classes on k vertices that contain a forbidden graph F of j < k
    vertices are the mask _containing(k, j) gives F, found by its rows in
    _positions(j); for j = k they are F alone. An edge count is feasible
    at n iff one of its classes is in none of these masks.

    Levels are checked in order, from the smallest forbidden order up to
    n, each by one OR per forbidden graph of at most its order. Being
    induced-F-free is hereditary, so once every class of a level is bad,
    so is every class of every larger order, each having a card one
    level down; the table is then all infeasible, and no larger level's
    classes or masks are read or built.
    """
    _check_n(n)
    # bad: the classes on k vertices that contain a forbidden graph
    bad = 0
    for k in range(family.forbidden[0].order, n + 1):
        bad = 0
        for pat in family.forbidden:
            if pat.order > k:
                break
            pos = _positions(pat.order)[pat.rows]
            bad |= 1 << pos if pat.order == k else _containing(k, pat.order)[pos]
        if bad.bit_count() == len(_reps(k)[0]):
            return PairTable(n, (False,) * (n * (n - 1) // 2 + 1))
    good = ~bad
    return PairTable(n, tuple(mask & good != 0 for mask in _edge_masks(n)))


def interval_check_p3k1(n: int) -> tuple[int, int]:
    """The interval of edge counts [floor(n/2)+1, n-2], every one of which
    is infeasible for the family forbidding {P_3 + isolate, K_3 + isolate}."""
    if n < 5:
        raise RangeError(f"interval defined for n >= 5, got {n}")
    return n // 2 + 1, n - 2


def table_to_csv(*tables: PairTable) -> str:
    """One n,m,feasible header, then every row of each table in turn."""
    lines = ["n,m,feasible"]
    for table in tables:
        for m, ok in enumerate(table.feasible):
            lines.append(f"{table.n},{m},{str(ok).lower()}")
    return "\n".join(lines) + "\n"


def table_to_json(table: PairTable, family: FamilySpec) -> str:
    """The `pairs --json` document: the table and the family's graph6 codes."""
    return json.dumps(
        {
            "n": table.n,
            "forbidden": [encode_graph6(g) for g in family.forbidden],
            "feasible": list(table.feasible),
            "f": table.f,
            "F": table.F,
        },
        indent=2,
    )
