"""graph6 text interchange, orders 0 to 64.

Layout per the published format: the order, then the upper-triangle
adjacency bits in column order (0-1, 0-2, 1-2, 0-3, ...) packed six per
byte, most significant first, each byte offset by 63. Orders up to 62
take one byte n+63; orders 63 and 64 take the long form, byte 126 and
then n as 18 bits in three such bytes. Decoding is strict: bad length,
bytes outside the printable range, nonzero padding and a long form for an
order that fits one byte raise ParseError carrying the byte offset; an
order above 64 raises CapacityError.
"""

from __future__ import annotations

from .errors import CapacityError, ParseError
from .graphs import MAX_ORDER, Graph

_SHORT_MAX = 62


def encode_graph6(g: Graph) -> str:
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


def _decode_order(text: str) -> tuple[int, int]:
    """Order and header length of a non-empty graph6 string."""
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


def decode_graph6(text: str) -> Graph:
    if not text:
        raise ParseError("empty graph6 string", 0)
    n, pos = _decode_order(text)
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


def encode_graph6_list(graphs) -> str:
    """Newline-delimited graph6, one graph per line, trailing newline."""
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def decode_graph6_list(text: str) -> list[Graph]:
    """Parse newline-delimited graph6; blank lines are skipped.

    ParseError offsets are rebased to the whole input, not the line.
    """
    out = []
    start = 0
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped:
            try:
                out.append(decode_graph6(stripped))
            except ParseError as e:
                raise ParseError(e.message, start + line.index(stripped) + e.offset)
        start += len(line) + 1
    return out
