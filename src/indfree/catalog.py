"""Text-to-graph resolution for the CLI.

A specifier is tried as a catalog name first, then as an edge-list
literal "n;u-v,u-w,..." when it contains a semicolon, and finally as
graph6. Catalog names cover the named small graphs and the parameterized
families: complete:k, empty:k, path:k (k vertices), cycle:k, star:k
(k leaves), matching:k (k edges), claw, paw, diamond, H:p,q,r, S:p,r,
Q:p,r,x,y.
"""

from __future__ import annotations

from .constructions import HParams, QParams, SplitParams, h_graph, q_graph, s_graph
from .errors import ParseError, byte_offset
from .graph6 import _decode_typed
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    matching_graph,
    path_graph,
    star_graph,
)

_FIXED = {
    "claw": lambda: star_graph(3),
    "paw": lambda: make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "diamond": lambda: make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
}

_PARAMETRIC = {
    "complete": (1, complete_graph),
    "empty": (1, empty_graph),
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "star": (1, star_graph),
    "matching": (1, matching_graph),
    "h": (3, lambda p, q, r: h_graph(HParams(p, q, r))),
    "s": (2, lambda p, r: s_graph(SplitParams(p, r))),
    "q": (4, lambda p, r, x, y: q_graph(QParams(p, r, x, y))),
}


def _parse_named(text: str) -> Graph | None:
    spec = text.strip()
    fixed = _FIXED.get(spec.lower())
    if fixed:
        return fixed()
    head, sep, tail = spec.partition(":")
    name = head.lower()
    if not sep or name not in _PARAMETRIC:
        return None
    arity, build = _PARAMETRIC[name]
    pos = len(text) - len(text.lstrip()) + len(head) + 1
    parts = tail.split(",")
    if len(parts) != arity:
        raise ParseError(
            f"{name!r} takes {arity} parameter(s), got {len(parts)}", byte_offset(text, pos)
        )
    args = []
    for part in parts:
        if not _is_digits(part.strip().removeprefix("-")):
            raise ParseError(f"bad integer {part!r} in {text!r}", byte_offset(text, pos))
        args.append(int(part))
        pos += len(part) + 1
    return build(*args)


def _is_digits(s: str) -> bool:
    # ASCII only: int() rejects some Unicode digits ('²') and accepts
    # others ('٤')
    return s.isascii() and s.isdigit()


def parse_edge_list(text: str) -> Graph:
    head, _, tail = text.partition(";")
    if not _is_digits(head.strip()):
        raise ParseError(f"edge list needs a leading vertex count, got {head!r}", 0)
    n = int(head)
    edges = []
    pos = len(head) + 1
    for token in tail.split(",") if tail.strip() else []:
        u, sep, v = token.partition("-")
        if not sep or not _is_digits(u.strip()) or not _is_digits(v.strip()):
            raise ParseError(f"bad edge token {token.strip()!r}", byte_offset(text, pos))
        edges.append((int(u), int(v)))
        pos += len(token) + 1
    return make_graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Resolve a specifier: catalog name, then edge list, then graph6."""
    named = _parse_named(text)
    if named is not None:
        return named
    if ";" in text:
        return parse_edge_list(text)
    try:
        return _decode_typed(text)
    except ParseError as e:
        raise ParseError(
            f"{text!r} is not a catalog name, an edge list, or graph6 ({e.message})", e.offset
        )
