"""Exhaustive enumeration and feasible-pair tables.

This module is the independent check on everything the constructions
promise: it enumerates all graphs on up to 8 vertices one isomorphism
class at a time, then marks which edge counts admit a member avoiding
every forbidden pattern. Representatives are canonical forms, so two
runs (or two workers splitting the stream) always agree.

The classes come in a fixed order. For n <= 6 they are sorted by their
labeled adjacency code (bit i for the i-th vertex pair in lexicographic
order). For n >= 7 they come in order of first discovery: the classes
on n - 1 vertices in their own order, each extended by one vertex with
every neighbourhood mask in ascending order. The tables do not depend
on the order; it is kept because enumerate_nonisomorphic's sequence is
part of the interface.

The tables need no embedding search. Enumerating each order from the
one below visits every class's deck, the graphs left by deleting one
vertex, so _reps records which classes extend which as bitmasks, and
feasible_pairs reads each table off those masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .errors import CapacityError, RangeError, ValidationError
from .graph6 import encode_graph6
from .graphs import Graph
from .iso import _aut_generators, canonical_form

ENUMERATION_CAP = 8


def _check_n(n: int) -> None:
    """Raise RangeError for a negative n, CapacityError above ENUMERATION_CAP."""
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive enumeration caps at n = {ENUMERATION_CAP}, got {n}")


@lru_cache(maxsize=None)
def _reps(n: int) -> tuple[tuple[Graph, ...], tuple[int, ...]]:
    """The canonical class representatives on n vertices, in class order,
    and the masks up: bit i of up[j] is set when class i has class j of
    _reps(n - 1) in its deck.

    Every order is built from the one below: each representative P on
    n - 1 vertices gets one new vertex with every neighbourhood mask in
    ascending order, and each child's canonical form is kept the first
    time it appears. For n <= 6 the classes are then sorted by
    _scan_code, the order of the module docstring; for n >= 7 the order
    of first discovery is the class order.

    A mask is skipped unless it is the least of its orbit under Aut(P),
    which the bytearray met marks as each orbit is first met. Some
    automorphism maps the orbit's least mask, met earlier, onto the
    skipped one, and that automorphism, fixing the new vertex, is an
    isomorphism between the two children, so the skipped child's class
    is already kept and neither the set nor the order changes.

    Aut(P) comes as generators from _aut_generators, not as a list of
    its elements. An orbit is the closure of its least mask under the
    generators, since every automorphism is a product of them and Aut(P)
    is finite, so a worklist that applies each generator to each mask it
    reaches marks exactly the orbit.

    Every child canonicalized sets its bit in its parent's mask, and so
    every card of every class is recorded: for any vertex v of a class
    C, C - v is isomorphic to some parent P, and C is then P plus one
    vertex whose mask lies in one orbit of Aut(P), the orbit whose least
    mask is canonicalized. The bits first follow the order of discovery,
    so for n <= 6 the masks are rebuilt after the sort, with the bits at
    the sorted positions.
    """
    if n == 0:
        return (Graph(0, ()),), ()
    index: dict[Graph, int] = {}
    up = []
    for parent in _reps(n - 1)[0]:
        prows = parent.rows
        # images[k][mask]: the image of mask under the k-th generator
        images = []
        for perm in _aut_generators(parent):
            img = [0]
            for v in range(n - 1):
                bit = 1 << perm[v]
                img += [s | bit for s in img]
            images.append(img)
        met = bytearray(1 << (n - 1))
        kids = 0
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
            c = canonical_form(Graph(n, tuple(rows)))
            kids |= 1 << index.setdefault(c, len(index))
        up.append(kids)
    out = list(index)
    if n <= 6:
        out.sort(key=_scan_code)
        up = [sum(1 << i for i, c in enumerate(out) if kids >> index[c] & 1) for kids in up]
    return tuple(out), tuple(up)


def _scan_code(g: Graph) -> int:
    """Labeled adjacency code: bit i set for the i-th pair (u, v), u < v,
    in lexicographic order."""
    code = shift = 0
    for u, r in enumerate(g.rows):
        code |= r >> (u + 1) << shift
        shift += g.order - 1 - u
    return code


@lru_cache(maxsize=None)
def _edge_masks(n: int) -> tuple[int, ...]:
    """For each edge count m, the mask of the classes in _reps(n) with m edges."""
    masks = [0] * (n * (n - 1) // 2 + 1)
    for i, g in enumerate(_reps(n)[0]):
        masks[g.edge_count] |= 1 << i
    return tuple(masks)


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on n vertices.

    Exhaustive only up to n = 8 (12346 classes); beyond that the space
    outgrows desk scale and this package offers no sampling fallback.
    """
    _check_n(n)
    yield from _reps(n)[0]


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


@lru_cache(maxsize=None)
def feasible_pairs(family: FamilySpec, n: int) -> PairTable:
    """Exact feasibility table, read off the classes' one-vertex decks.

    Being induced-F-free is hereditary. A class C on k vertices contains
    a forbidden F of fewer vertices iff some card C - v does, since an
    induced copy of F misses some vertex v; one of k vertices it contains
    iff C is F. So, level by level from 1 to n, the classes containing a
    forbidden graph are those extending such a class one level down
    (the up masks of _reps) plus the forbidden graphs of that order, and
    an edge count is feasible iff one of its classes is left over.
    """
    _check_n(n)
    # bad: the classes on k vertices that contain a forbidden graph
    bad = 0
    for k in range(1, n + 1):
        classes, up = _reps(k)
        below, bad = bad, 0
        for j, kids in enumerate(up):
            if below >> j & 1:
                bad |= kids
        for pat in family.forbidden:
            if pat.order == k:
                bad |= 1 << classes.index(pat)
    return PairTable(n, tuple(mask & ~bad != 0 for mask in _edge_masks(n)))


def interval_check_p3k1(n: int) -> tuple[int, int]:
    """The interval of edge counts [floor(n/2)+1, n-2], every one of which
    is infeasible for the family forbidding {P_3 + isolate, K_3 + isolate}."""
    if n < 5:
        raise RangeError(f"interval defined for n >= 5, got {n}")
    return n // 2 + 1, n - 2


def table_to_csv(table: PairTable) -> str:
    lines = ["n,m,feasible"]
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
