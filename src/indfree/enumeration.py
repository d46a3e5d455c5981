"""Exhaustive enumeration and feasible-pair tables.

This module is the independent check on everything the constructions
promise: it enumerates all graphs on up to 8 vertices one isomorphism
class at a time, then marks which edge counts admit a member avoiding
every forbidden pattern. Representatives are canonical forms, so two
runs (or two workers splitting the stream) always agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .errors import CapacityError, RangeError, ValidationError
from .graphs import Graph
from .iso import canonical_form, contains_induced, wl_colors

ENUMERATION_CAP = 8


@lru_cache(maxsize=None)
def _reps(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, ()),)
    if n <= 6:
        # full labeled scan, keeping self-canonical graphs only; a canonical
        # graph lists its refinement cells in ascending contiguous blocks,
        # so unsorted colorings are rejected before the expensive search
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out = []
        for code in range(1 << len(pairs)):
            rows = [0] * n
            for i, (u, v) in enumerate(pairs):
                if code >> i & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            g = Graph(n, tuple(rows))
            colors = wl_colors(g)
            if any(colors[i] > colors[i + 1] for i in range(n - 1)):
                continue
            if canonical_form(g) == g:
                out.append(g)
        return tuple(out)
    # extend each (n-1)-vertex representative by one vertex with every
    # possible neighborhood, deduplicating by canonical form
    seen: set[Graph] = set()
    out = []
    for parent in _reps(n - 1):
        prows = parent.rows
        for mask in range(1 << (n - 1)):
            rows = [prows[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            c = canonical_form(Graph(n, tuple(rows)))
            if c not in seen:
                seen.add(c)
                out.append(c)
    return tuple(out)


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
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration caps at n = {ENUMERATION_CAP}; "
            f"orders beyond that would need sampling, which is out of scope"
        )
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
    if n < 0:
        raise RangeError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exact tables cap at n = {ENUMERATION_CAP}")
    pats = [g for g in family.forbidden if g.order <= n]
    feasible = [
        any(all(contains_induced(g, pat) is None for pat in pats) for g in hosts)
        for hosts in _reps_by_edges(n)
    ]
    return PairTable(n, tuple(feasible))


def extremal_stats(family: FamilySpec, n: int) -> tuple[int | None, int | None]:
    """Least and greatest infeasible edge count, None/None when all feasible."""
    table = feasible_pairs(family, n)
    return table.f, table.F


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


def table_to_json(table: PairTable) -> str:
    return json.dumps(
        {
            "n": table.n,
            "feasible": list(table.feasible),
            "f": table.f,
            "F": table.F,
        },
        indent=2,
    )
