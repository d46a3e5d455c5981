"""graph6 text interchange, orders 0 to 64.

Layout per the published format: the order, then the upper-triangle
adjacency bits in column order (0-1, 0-2, 1-2, 0-3, ...) packed six per
byte, most significant first, each byte offset by 63. Orders up to 62
take one byte n+63; orders 63 and 64 take the long form, byte 126 and
then n as 18 bits in three such bytes. Decoding is strict: bad length,
bytes outside the printable range, nonzero padding and a long form for an
order that fits one byte raise ParseError carrying the byte offset; an
order above 64 raises CapacityError.

The body goes through the base64 codec in ``binascii``. base64 also packs
a bit string six bits per character, most significant first, and only its
alphabet differs: value k is the k-th of A-Z, a-z, 0-9, +, / where graph6
writes chr(63 + k). So encoding pads the bit string with zeros to a whole
number of base64 groups (24 bits), encodes, translates the alphabet to
bytes 63..126 and cuts the characters that hold only padding; decoding
runs the same steps backwards. The text is byte-identical to packing the
bits one at a time.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .errors import CapacityError, ParseError, byte_offset
from .graphs import MAX_ORDER, Graph

_SHORT_MAX = 62
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)


def encode_graph6(g: Graph) -> str:
    n = g.order
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {MAX_ORDER} vertices")
    if n <= _SHORT_MAX:
        head = chr(n + 63)
    else:
        head = "~" + "".join([chr((n >> s & 63) + 63) for s in (12, 6, 0)])
    nbits = n * (n - 1) // 2
    rows = g.rows
    # The bit stream backwards, as one integer: column v (bits u = 0..v-1
    # of row v) starts at bit v(v-1)/2, u = 0 lowest.
    back = 0
    for v in range(1, n):
        back |= (rows[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
    bits = format(back, f"0{nbits}b")[::-1]
    pad = -nbits % 24
    data = (int(bits, 2) << pad).to_bytes((nbits + pad) // 8, "big")
    body = b2a_base64(data, newline=False).translate(_TO_G6)
    return head + body[: (nbits + 5) // 6].decode("ascii")


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
    nbits = n * (n - 1) // 2
    need = pos + (nbits + 5) // 6
    if len(text) != need:
        raise ParseError(
            f"graph6 string for order {n} needs {need} bytes, got {byte_offset(text, len(text))}",
            min(len(text), need),
        )
    body = text[pos:]
    # deleting the bytes 63..126 leaves the bad ones; only then find the first
    if not body.isascii() or body.encode("ascii").translate(None, _G6):
        bad = next(i for i, c in enumerate(body) if not "?" <= c <= "~")
        raise ParseError(f"invalid graph6 byte {body[bad]!r}", pos + bad)
    data = body.encode("ascii").translate(_FROM_G6)
    data += b"A" * (-len(data) % 4)
    pad = 6 * len(data) - nbits
    value = int.from_bytes(a2b_base64(data), "big")
    if value & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits", need - 1)
    back = format(value >> pad, f"0{nbits}b")[::-1]
    # The stream backwards lists column n-1 first, each column from
    # u = v-1 down to 0. Left-padded with zeros to n characters, column v
    # becomes line n-1-v of T, the adjacency matrix with both vertex
    # orders reversed and filled above its diagonal only: T[i*n + j] is
    # the bit of (n-1-i, n-1-j) for j > i. As int() reads most significant
    # first, line i then holds the lower neighbours of vertex n-1-i and
    # the stride slice from i (its column) the higher ones.
    t = "".join(
        ["0" * (n - v) + back[nbits - v * (v + 1) // 2 : nbits - v * (v - 1) // 2] for v in range(n - 1, -1, -1)]
    )
    return Graph(n, tuple([int(t[i * n : (i + 1) * n], 2) | int(t[i::n], 2) for i in range(n - 1, -1, -1)]))


def encode_graph6_list(graphs) -> str:
    """Newline-delimited graph6, one graph per line, trailing newline."""
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def decode_graph6_list(text: str) -> list[Graph]:
    """Parse newline-delimited graph6; blank lines are skipped.

    ParseError offsets count UTF-8 bytes of the whole input as typed,
    blanks around a line included.
    """
    out = []
    start = 0
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped:
            try:
                out.append(decode_graph6(stripped))
            except ParseError as e:
                lead = len(line) - len(line.lstrip())
                raise ParseError(e.message, byte_offset(text, start + lead + e.offset))
        start += len(line) + 1
    return out
