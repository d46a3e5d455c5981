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
every neighbourhood mask in ascending order. The order is kept on
purpose: feasible_pairs stops at the first feasible class of each edge
count, so another order gives the same tables but may scan more hosts
before it finds one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .errors import CapacityError, RangeError, ValidationError
from .graph6 import encode_graph6
from .graphs import Graph
from .iso import _aut_generators, canonical_form, contains_induced

ENUMERATION_CAP = 8


def _check_n(n: int) -> None:
    """Raise RangeError for a negative n, CapacityError above ENUMERATION_CAP."""
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive enumeration caps at n = {ENUMERATION_CAP}, got {n}")


@lru_cache(maxsize=None)
def _reps(n: int) -> tuple[Graph, ...]:
    """The canonical class representatives on n vertices, in class order.

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
    """
    if n == 0:
        return (Graph(0, ()),)
    seen: set[Graph] = set()
    out = []
    for parent in _reps(n - 1):
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
            if c not in seen:
                seen.add(c)
                out.append(c)
    if n <= 6:
        out.sort(key=_scan_code)
    return tuple(out)


def _scan_code(g: Graph) -> int:
    """Labeled adjacency code: bit i set for the i-th pair (u, v), u < v,
    in lexicographic order."""
    code = shift = 0
    for u, r in enumerate(g.rows):
        code |= r >> (u + 1) << shift
        shift += g.order - 1 - u
    return code


@lru_cache(maxsize=None)
def _reps_by_edges(n: int) -> tuple[tuple[Graph, ...], ...]:
    """_reps(n) split by edge count, each bucket in _reps order."""
    buckets: list[list[Graph]] = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for g in _reps(n):
        buckets[g.edge_count].append(g)
    return tuple([tuple(b) for b in buckets])


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on n vertices.

    Exhaustive only up to n = 8 (12346 classes); beyond that the space
    outgrows desk scale and this package offers no sampling fallback.
    """
    _check_n(n)
    yield from _reps(n)


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
    """Exact feasibility table by exhaustive scan of all classes on n vertices.

    Each edge count's classes are tried in _reps order up to the first
    one that avoids every forbidden graph.
    """
    _check_n(n)
    pats = [g for g in family.forbidden if g.order <= n]
    feasible = [
        any(all(contains_induced(g, pat) is None for pat in pats) for g in hosts)
        for hosts in _reps_by_edges(n)
    ]
    return PairTable(n, tuple(feasible))


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
